package obs

import (
	"encoding/json"
	"sync"
	"testing"
)

// TestNilTracerIsNoOp: a nil recorder and a recorder built without tracing
// both hand out nil spans, report no span data, still marshal a well-formed
// empty trace, and (non-tracing) carry no spans_dropped drop counter.
func TestNilTracerIsNoOp(t *testing.T) {
	for _, r := range []*Recorder{nil, NewRecorder()} {
		if r.Tracing() {
			t.Fatalf("recorder %v claims to trace", r)
		}
		sp := r.Begin("anything")
		if sp != nil {
			t.Fatalf("non-tracing recorder returned a span")
		}
		// Every span method must be callable on the nil result.
		sp.Arg("k", 1).End()
		if c := sp.Child("child"); c != nil {
			t.Fatalf("nil span produced a child")
		}
		if c := sp.ChildOn(3, "child"); c != nil {
			t.Fatalf("nil span produced a child on a track")
		}
		if r.SpanCount() != 0 || r.SpansDropped() != 0 || r.Tracks() != nil {
			t.Fatalf("non-tracing recorder reported span data")
		}
		b, err := r.MarshalTrace()
		if err != nil {
			t.Fatalf("non-tracing marshal: %v", err)
		}
		var doc map[string]json.RawMessage
		if err := json.Unmarshal(b, &doc); err != nil {
			t.Fatalf("non-tracing trace is not valid JSON: %v", err)
		}
		if n := r.Numerics(); n != nil {
			if _, ok := n.Drops["obs/spans_dropped"]; ok {
				t.Fatalf("non-tracing recorder reports obs/spans_dropped")
			}
		}
	}
}

func TestSpanTreeAndTracks(t *testing.T) {
	tr := NewTracingRecorder(0)
	root := tr.Begin("root").Arg("contacts", 256)
	c1 := root.ChildOn(1, "work").Arg("square", 7)
	c1.End()
	c2 := root.ChildOn(2, "work")
	g := c2.Child("inner") // inherits track 2
	g.End()
	c2.End()
	root.End()

	if got := tr.SpanCount(); got != 4 {
		t.Fatalf("span count = %d, want 4", got)
	}
	if got := tr.Tracks(); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("tracks = %v, want [0 1 2]", got)
	}
	spans := tr.spanSnapshot()
	byName := map[string][]spanRec{}
	for _, sp := range spans {
		byName[sp.name] = append(byName[sp.name], sp)
	}
	rootRec := byName["root"][0]
	if rootRec.parent != 0 || rootRec.track != 0 {
		t.Fatalf("root span malformed: %+v", rootRec)
	}
	if rootRec.args["contacts"] != 256 {
		t.Fatalf("root args lost: %+v", rootRec.args)
	}
	for _, w := range byName["work"] {
		if w.parent != rootRec.id {
			t.Fatalf("work span not parented to root: %+v", w)
		}
	}
	inner := byName["inner"][0]
	if inner.track != 2 {
		t.Fatalf("Child did not inherit track: %+v", inner)
	}
}

func TestTracerDropsBeyondCapacityExplicitly(t *testing.T) {
	tr := NewTracingRecorder(3)
	if got := tr.Numerics().Drops["obs/spans_dropped"]; got != 0 {
		t.Fatalf("fresh recorder spans_dropped = %d, want 0", got)
	}
	if _, ok := tr.Numerics().Drops["obs/spans_dropped"]; !ok {
		t.Fatalf("tracing recorder does not register obs/spans_dropped before any drop")
	}
	for i := 0; i < 10; i++ {
		tr.Begin("s").End()
	}
	if got := tr.SpanCount(); got != 3 {
		t.Fatalf("span count = %d, want capacity 3", got)
	}
	if got := tr.SpansDropped(); got != 7 {
		t.Fatalf("dropped = %d, want 7", got)
	}
	// The recorder's own drop accounting lands in the report's numerics.
	if got := tr.Numerics().Drops["obs/spans_dropped"]; got != 7 {
		t.Fatalf("numerics obs/spans_dropped = %d, want 7", got)
	}
	// The export labels the loss instead of hiding it.
	b, err := tr.MarshalTrace()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		OtherData map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if got := doc.OtherData["spans_dropped"]; got != float64(7) {
		t.Fatalf("exported spans_dropped = %v, want 7", got)
	}
}

func TestTracerConcurrentUse(t *testing.T) {
	tr := NewTracingRecorder(0)
	root := tr.Begin("root")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				root.ChildOn(w+1, "work").Arg("i", i).End()
			}
		}(w)
	}
	wg.Wait()
	root.End()
	if got := tr.SpanCount(); got != 8*200+1 {
		t.Fatalf("span count = %d, want %d", got, 8*200+1)
	}
	if got := len(tr.Tracks()); got != 9 {
		t.Fatalf("tracks = %d, want 9", got)
	}
}

// TestMarshalTraceEventShape parses the export as the Chrome trace-event
// format: per-track thread metadata first, then one complete event per span
// with microsecond timestamps and parent links in args.
func TestMarshalTraceEventShape(t *testing.T) {
	tr := NewTracingRecorder(0)
	root := tr.Begin("core/extract")
	root.ChildOn(1, "solver/solve").Arg("rhs", 0).End()
	root.End()

	b, err := tr.MarshalTrace()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var meta, complete int
	names := map[string]string{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			meta++
			if e.Name == "thread_name" {
				names[e.Args["name"].(string)] = ""
			}
		case "X":
			complete++
			if e.Ts < 0 || e.Dur < 0 {
				t.Fatalf("negative timestamp in %+v", e)
			}
			if _, ok := e.Args["span_id"]; !ok {
				t.Fatalf("complete event missing span_id: %+v", e)
			}
			if e.Name == "solver/solve" {
				if e.Tid != 1 || e.Args["parent_id"] == nil || e.Args["rhs"] != float64(0) {
					t.Fatalf("solve event malformed: %+v", e)
				}
			}
		default:
			t.Fatalf("unexpected event phase %q", e.Ph)
		}
	}
	if complete != 2 {
		t.Fatalf("complete events = %d, want 2", complete)
	}
	if _, ok := names["main"]; !ok {
		t.Fatalf("track 0 not named main: %v", names)
	}
	if _, ok := names["worker-1"]; !ok {
		t.Fatalf("track 1 not named worker-1: %v", names)
	}
}
