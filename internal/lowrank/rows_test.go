package lowrank

import (
	"math"
	"math/rand"
	"testing"

	"subcouple/internal/la"
	"subcouple/internal/quadtree"
)

// TestRowProductsMatchRowsFor checks the in-place R-row products bitwise
// against multiplying the copied rowsFor matrix: same rows, same loop
// order, same skip of zero entries in the transposed product.
func TestRowProductsMatchRowsFor(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		np, c := 1+rng.Intn(30), rng.Intn(7)
		sd := &squareData{sq: &quadtree.Square{}, R: la.NewDense(np, c), pIndex: map[int]int{}}
		for i := range sd.R.Data {
			sd.R.Data[i] = rng.NormFloat64()
		}
		// P_s contacts are arbitrary ids in an arbitrary row order.
		for row, id := range rng.Perm(3 * np)[:np] {
			sd.pContacts = append(sd.pContacts, id)
			sd.pIndex[id] = row
		}
		contacts := make([]int, rng.Intn(np+1))
		for i := range contacts {
			contacts[i] = sd.pContacts[rng.Intn(np)]
		}
		x := make([]float64, c)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y := make([]float64, len(contacts))
		for i := range y {
			if rng.Intn(3) > 0 {
				y[i] = rng.NormFloat64()
			}
		}
		rows := sd.rowsFor(contacts)
		for what, pair := range map[string][2][]float64{
			"MulVec":  {sd.rowsMulVec(contacts, x), rows.MulVec(x)},
			"MulVecT": {sd.rowsMulVecT(contacts, y), rows.MulVecT(y)},
		} {
			got, want := pair[0], pair[1]
			if len(got) != len(want) {
				t.Fatalf("%s: length %d vs %d", what, len(got), len(want))
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("trial %d %s[%d]: %v vs %v", trial, what, i, got[i], want[i])
				}
			}
		}
	}
}

func TestRowProductsRejectContactOutsideP(t *testing.T) {
	sd := &squareData{sq: &quadtree.Square{}, R: la.NewDense(1, 2), pIndex: map[int]int{5: 0}}
	for what, f := range map[string]func(){
		"MulVec":  func() { sd.rowsMulVec([]int{5, 6}, []float64{1, 1}) },
		"MulVecT": func() { sd.rowsMulVecT([]int{5, 6}, []float64{1, 0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: contact outside P_s did not panic", what)
				}
			}()
			f()
		}()
	}
}
