package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"time"
)

// span.go is the benchmark's tracer. Spans are recorded from the
// bench's own files, around the calls into each layer, kept in memory
// and written out once at exit. A span has a name (the layer call), the
// span that caused it, and the slab it belongs to: the spans of one
// 256-message slab share that identifier the way the spans of one
// request share a trace id.

type span struct {
	parent int32 // index+1 of the parent span, 0 for a root
	name   uint8 // index into tracer.names
	slab   int32
	start  int64 // ns since tracer.t0
	end    int64
}

type tracer struct {
	t0    time.Time
	names []string
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) nameID(name string) uint8 {
	for i, n := range t.names {
		if n == name {
			return uint8(i)
		}
	}
	t.names = append(t.names, name)
	return uint8(len(t.names) - 1)
}

// begin opens a span and returns its id (index+1); end closes it.
func (t *tracer) begin(name uint8, parent int32, slab int) int32 {
	t.spans = append(t.spans, span{parent: parent, name: name, slab: int32(slab), start: int64(time.Since(t.t0))})
	return int32(len(t.spans))
}

func (t *tracer) end(id int32) { t.spans[id-1].end = int64(time.Since(t.t0)) }

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part its children cover. Spans under a span named
// `shadow` (work timed beside the job, not part of it) are summed
// apart, so a layer that runs both on and off the job's path is not
// counted into the path twice.
func (t *tracer) selfTimes() (path, shadow map[string]time.Duration) {
	self := make([]int64, len(t.spans))
	off := make([]bool, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent > 0 {
			self[s.parent-1] -= s.end - s.start
			off[i] = off[s.parent-1]
		}
		off[i] = off[i] || t.names[s.name] == "shadow"
	}
	path, shadow = map[string]time.Duration{}, map[string]time.Duration{}
	for i, s := range t.spans {
		if off[i] {
			shadow[t.names[s.name]] += time.Duration(self[i])
		} else {
			path[t.names[s.name]] += time.Duration(self[i])
		}
	}
	return path, shadow
}

// traceColumns is the order of a span row in the trace file; see
// README.md, "Reading a trace file".
var traceColumns = []string{"id", "parent", "name", "slab", "start_ns", "end_ns"}

// write streams the spans out as {"workload", "seed", "names",
// "columns", "spans": [[id, parent, name, slab, start_ns, end_ns], ...]}
// without building them as values first (a staged replay records a few
// hundred thousand). Row ids are 1-based positions; parent 0 is a root.
func (t *tracer) write(path, workload string, seed uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	names, _ := json.Marshal(t.names)
	cols, _ := json.Marshal(traceColumns)
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"names\":%s,\"columns\":%s,\"spans\":[", workload, seed, names, cols)
	var buf []byte
	for i, s := range t.spans {
		buf = buf[:0]
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '\n', '[')
		for j, v := range [...]int64{int64(i + 1), int64(s.parent), int64(s.name), int64(s.slab), s.start, s.end} {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendInt(buf, v, 10)
		}
		buf = append(buf, ']')
		w.Write(buf)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
