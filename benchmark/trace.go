package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// processBase anchors every timestamp the harness takes; nanotime is
// monotonic nanoseconds since then.
var processBase = time.Now()

func nanotime() int64 { return int64(time.Since(processBase)) }

// span is one traced interval at a layer boundary, recorded from the
// harness's own call sites. Spans of one ingest batch share the batch index;
// Parent is the span that caused this one (0 for none). The batches are cut
// before the clock starts, so there is no generator span above the ingest:
// the chain is engine.process_batch (client.ingest) -> sink.match.
type span struct {
	Name   string `json:"name"`
	Phase  string `json:"phase"`
	Batch  int    `json:"batch"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

const (
	spanProcess = "engine.process_batch" // client.ingest on the served target
	spanIngest  = "client.ingest"
	spanSink    = "sink.match"

	// maxSinkSpans bounds the per-phase sink.match spans kept in memory: the
	// many-queries workload delivers half a million matches per pass.
	maxSinkSpans = 100_000
)

// phaseTrace collects the spans of one phase. Batch spans are appended by
// the ingest goroutine and sink spans by the delivery goroutine, into
// separate slices, so neither takes a lock; IDs are arithmetic (batch b owns
// b+1, sink spans follow) so the sink can name its parent without
// sharing state.
type phaseTrace struct {
	phase       string
	processName string
	batches     int
	batch       []span
	sink        []span
	sinkDropped int
}

func newPhaseTrace(phase, processName string, batches int) *phaseTrace {
	return &phaseTrace{
		phase:       phase,
		processName: processName,
		batches:     batches,
		batch:       make([]span, 0, batches),
		sink:        make([]span, 0, maxSinkSpans),
	}
}

func processSpanID(b int) int { return b + 1 }

func (t *phaseTrace) process(b int, start, end int64) {
	t.batch = append(t.batch, span{Name: t.processName, Phase: t.phase, Batch: b, ID: processSpanID(b), Start: start, End: end})
}

func (t *phaseTrace) match(b int, start, end int64) {
	if len(t.sink) == cap(t.sink) {
		t.sinkDropped++
		return
	}
	id := t.batches + 1 + len(t.sink)
	t.sink = append(t.sink, span{Name: spanSink, Phase: t.phase, Batch: b, ID: id, Parent: processSpanID(b), Start: start, End: end})
}

func (t *phaseTrace) spans() []span {
	return append(append([]span(nil), t.batch...), t.sink...)
}

// selfTimes sums, per span name, each span's duration minus the part of its
// interval that its child spans cover. A child that runs after its parent
// returned (the served sink) takes nothing away from it.
func selfTimes(spans []span) map[string]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Name] += (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of the union of the child intervals clipped to
// [start, end].
func covered(start, end int64, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	cur := start
	for _, k := range kids {
		lo, hi := max(k.Start, cur), min(k.End, end)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// writeSpans writes the phases' spans as JSON Lines — one span per line,
// then one {"meta": ...} line per phase with what was dropped.
func writeSpans(dir, name string, phases []*phaseTrace) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, p := range phases {
		for _, s := range p.spans() {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return "", err
			}
		}
		meta := map[string]any{"meta": map[string]any{
			"phase": p.phase, "batches": p.batches, "sink_spans": len(p.sink), "sink_spans_dropped": p.sinkDropped,
		}}
		if err := enc.Encode(meta); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
