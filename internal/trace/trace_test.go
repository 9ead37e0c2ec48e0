package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestRecorderBasics(t *testing.T) {
	r := NewRecorder(10)
	r.SetSeq(5)
	r.Record(EventAdmit, "layoutA", "|S|=2")
	r.SetSeq(9)
	r.Record(EventSwitch, "layoutA", "from=default")

	events := r.Events()
	if len(events) != 2 {
		t.Fatalf("events = %d", len(events))
	}
	if events[0].Seq != 5 || events[0].Kind != EventAdmit || events[0].Layout != "layoutA" {
		t.Errorf("event 0 = %+v", events[0])
	}
	if events[1].Seq != 9 || events[1].Kind != EventSwitch {
		t.Errorf("event 1 = %+v", events[1])
	}
}

func TestRecorderRingEviction(t *testing.T) {
	r := NewRecorder(3)
	for i := 0; i < 7; i++ {
		r.SetSeq(i)
		r.Record(EventPhase, "l", "")
	}
	events := r.Events()
	if len(events) != 3 {
		t.Fatalf("retained %d, want 3", len(events))
	}
	for i, want := range []int{4, 5, 6} {
		if events[i].Seq != want {
			t.Errorf("slot %d seq = %d, want %d", i, events[i].Seq, want)
		}
	}
}

func TestNilRecorderDiscards(t *testing.T) {
	var r *Recorder
	r.SetSeq(1)                   // must not panic
	r.Record(EventAdmit, "x", "") // must not panic
	if got := r.Events(); got != nil {
		t.Errorf("nil recorder returned events: %v", got)
	}
}

func TestRecorderCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity accepted")
		}
	}()
	NewRecorder(0)
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		EventAdmit: "admit", EventReject: "reject", EventPrune: "prune",
		EventSwitch: "switch", EventPhase: "phase",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if !strings.HasPrefix(Kind(42).String(), "Kind(") {
		t.Error("unknown kind string")
	}
}

func TestDump(t *testing.T) {
	r := NewRecorder(4)
	r.SetSeq(3)
	r.Record(EventSwitch, "qdtree(x)", "from=sort(ts)")
	r.Record(EventPhase, "qdtree(x)", "")
	var buf bytes.Buffer
	if err := r.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "switch") || !strings.Contains(out, "from=sort(ts)") {
		t.Errorf("dump output:\n%s", out)
	}
	if got := len(strings.Split(strings.TrimSpace(out), "\n")); got != 2 {
		t.Errorf("dump lines = %d", got)
	}
}

func TestEventString(t *testing.T) {
	e := Event{Seq: 7, Kind: EventAdmit, Layout: "l"}
	if !strings.Contains(e.String(), "admit") {
		t.Errorf("String = %q", e.String())
	}
}
