package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Trace export: a tracing recorder's span buffer rendered as Chrome
// trace-event JSON (the "JSON Array Format" with an object wrapper),
// loadable in Perfetto (https://ui.perfetto.dev) and chrome://tracing. Each
// span becomes one complete ("ph":"X") event; its track id becomes the tid,
// so worker overlap is visible as parallel rows. Parent/child links are
// carried in args ("span_id"/"parent_id") — within a track the viewer also
// nests spans by time containment.

// traceEvent is one entry of the traceEvents array.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds since trace start
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceDoc is the top-level trace-event JSON document.
type traceDoc struct {
	TraceEvents     []traceEvent   `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData"`
}

// trackName labels a track for the viewer's row headers.
func trackName(track int) string {
	if track == 0 {
		return "main"
	}
	return fmt.Sprintf("worker-%d", track)
}

// MarshalTrace renders the committed spans as Chrome trace-event JSON. A
// nil or non-tracing recorder marshals as an empty (but still well-formed)
// trace.
func (r *Recorder) MarshalTrace() ([]byte, error) {
	spans := r.spanSnapshot()
	// Chronological order reads naturally and keeps the output stable for a
	// given run; ties (same start) break by span id.
	sort.Slice(spans, func(i, j int) bool {
		if !spans[i].start.Equal(spans[j].start) {
			return spans[i].start.Before(spans[j].start)
		}
		return spans[i].id < spans[j].id
	})

	events := make([]traceEvent, 0, len(spans)+8)
	// Thread metadata first: name each used track and sort main above the
	// workers.
	for _, track := range tracksOf(spans) {
		events = append(events,
			traceEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: track,
				Args: map[string]any{"name": trackName(track)}},
			traceEvent{Name: "thread_sort_index", Ph: "M", Pid: 1, Tid: track,
				Args: map[string]any{"sort_index": track}},
		)
	}
	for i := range spans {
		sp := &spans[i]
		args := make(map[string]any, len(sp.args)+2)
		for k, v := range sp.args {
			args[k] = v
		}
		args["span_id"] = sp.id
		if sp.parent != 0 {
			args["parent_id"] = sp.parent
		}
		events = append(events, traceEvent{
			Name: sp.name,
			Ph:   "X",
			Ts:   float64(sp.start.Sub(r.spans.start).Nanoseconds()) / 1e3,
			Dur:  float64(sp.dur.Nanoseconds()) / 1e3,
			Pid:  1,
			Tid:  sp.track,
			Args: args,
		})
	}
	doc := traceDoc{
		TraceEvents:     events,
		DisplayTimeUnit: "ms",
		OtherData: map[string]any{
			"spans":         len(spans),
			"spans_dropped": r.SpansDropped(),
		},
	}
	b, err := json.MarshalIndent(&doc, "", " ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteTrace writes the trace-event JSON to w.
func (r *Recorder) WriteTrace(w io.Writer) error {
	b, err := r.MarshalTrace()
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}
