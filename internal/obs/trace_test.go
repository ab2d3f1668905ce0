package obs_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"raxmlcell/internal/obs"
)

// populate records a fixed mixed-phase timeline, deliberately out of
// timestamp order to exercise the output sort.
func populate(t *obs.Tracer) {
	t.Span("spe0", "compute", "spe", 100, 250)
	t.Instant("sched", "claim search#0", "sched", 5)
	t.Counter("scheduler", "jobs-pending", 5, 4)
	t.Span("ppe", "phase", "ppe", 0, 90)
	t.Instant("spe0", "adopt", "sched", 100)
	t.Counter("scheduler", "jobs-pending", 250, 3)
	t.Span("spe1", "dma-wait", "dma", 90, 100)
}

func TestWriteJSONByteDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	tr := obs.NewTracer()
	populate(tr)
	if err := tr.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two WriteJSON calls on the same tracer differ")
	}
	// A fresh tracer fed the same calls must serialize identically.
	tr2 := obs.NewTracer()
	populate(tr2)
	var c bytes.Buffer
	if err := tr2.WriteJSON(&c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("identical event sequences serialized differently")
	}
}

func TestWriteJSONValidAndSorted(t *testing.T) {
	tr := obs.NewTracer()
	populate(tr)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	n, err := obs.ValidateTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("self-produced trace fails validation: %v", err)
	}
	// 7 events + 2 metadata records per track (spe0, sched, scheduler, ppe, spe1).
	if want := 7 + 2*5; n != want {
		t.Fatalf("validated %d events, want %d", n, want)
	}

	var f struct {
		TraceEvents []struct {
			Phase string  `json:"ph"`
			TS    float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	last := -1.0
	for i, ev := range f.TraceEvents {
		if ev.Phase == "M" {
			continue
		}
		if ev.TS < last {
			t.Fatalf("event %d: ts %v after %v — not sorted", i, ev.TS, last)
		}
		last = ev.TS
	}
}

func TestSpanInvertedDropped(t *testing.T) {
	tr := obs.NewTracer()
	tr.Span("x", "bad", "c", 10, 5)
	if tr.Len() != 0 {
		t.Fatalf("inverted span recorded; Len = %d", tr.Len())
	}
	// The empty timeline is a valid file, and the dropped span left no track.
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateTrace(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("empty trace invalid: %v", err)
	}
	if strings.Contains(buf.String(), "thread_name") {
		t.Fatal("an inverted span registered its track")
	}
	tr.Span("x", "zero", "c", 10, 10) // zero-width is legal
	if tr.Len() != 1 {
		t.Fatalf("zero-width span dropped; Len = %d", tr.Len())
	}
}

func TestValidateTraceRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"not json", `{"traceEvents":[`},
		{"no traceEvents", `{"other":[]}`},
		{"missing name", `{"traceEvents":[{"ph":"i","s":"t","ts":1,"pid":0,"tid":0}]}`},
		{"missing ph", `{"traceEvents":[{"name":"a","ts":1,"pid":0,"tid":0}]}`},
		{"unknown phase", `{"traceEvents":[{"name":"a","ph":"Q","ts":1,"pid":0,"tid":0}]}`},
		{"complete without dur", `{"traceEvents":[{"name":"a","ph":"X","ts":1,"pid":0,"tid":0}]}`},
		{"negative dur", `{"traceEvents":[{"name":"a","ph":"X","ts":1,"dur":-2,"pid":0,"tid":0}]}`},
		{"missing ts", `{"traceEvents":[{"name":"a","ph":"i","s":"t","pid":0,"tid":0}]}`},
		{"instant without scope", `{"traceEvents":[{"name":"a","ph":"i","ts":1,"pid":0,"tid":0}]}`},
		{"missing tid", `{"traceEvents":[{"name":"a","ph":"i","s":"t","ts":1,"pid":0}]}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := obs.ValidateTrace(strings.NewReader(c.in)); err == nil {
				t.Fatalf("ValidateTrace accepted %s", c.name)
			}
		})
	}
}
