package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// The program may not be edited by the change that defines its benchmark,
// so layers are measured from outside by peeling: for each sampled operation
// the traced pass records one root span around the real operation, then
// calls each layer's public functions directly on the same generated input,
// each call wrapped in a span whose parent is the next layer out. A layer's
// self time is its span minus the spans nested in it. Spans stay in memory;
// they are folded into per-layer sums as they close and written out only
// with -trace-out.

// layerID indexes perLayer; pseudo layers (spans that are parents or roots
// but no metric of their own) follow it.
type layerID int

var layerIndex = func() map[string]layerID {
	m := make(map[string]layerID, len(perLayer))
	for i, d := range perLayer {
		m[d.Name] = layerID(i)
	}
	return m
}()

// layer resolves a per-layer metric name once, at package initialisation;
// an unknown name is a typo in this package.
func layer(name string) layerID {
	id, ok := layerIndex[name]
	if !ok {
		panic("bench: undeclared per-layer metric " + name)
	}
	return id
}

var (
	lEncodeReq  = layer("wire.encode_request_ns")
	lDecodeReq  = layer("wire.decode_request_ns")
	lEncodeResp = layer("wire.encode_response_ns")
	lDecodeResp = layer("wire.decode_response_ns")
	lStep       = layer("relay.step_ns")
	lFinish     = layer("relay.finish_ns")
	lDecide     = layer("relay.decide_ns")
	lNodesBuild = layer("core.nodes_build_ns")
	lAdvBuild   = layer("adversary.build_ns")
	lAdvWrap    = layer("adversary.wrap_ns")
	lDeliver    = layer("round.deliver_ns")
	lCollect    = layer("round.collect_ns")
	lEngineNew  = layer("round.engine_new_ns")
	lRestart    = layer("round.restart_ns")
	lAsyncSched = layer("round.async_sched_ns")
	lInjectors  = layer("chaos.channel_ns")
	lSpecCheck  = layer("spec.check_ns")
	lTopoBuild  = layer("topology.build_ns")
	lTransport  = layer("transport.deliver_ns")
	lRouted     = layer("routednet.deliver_ns")
	lACastStart = layer("acast.start_ns")
	lACastOn    = layer("acast.on_deliver_ns")
	lABAOn      = layer("aba.on_deliver_ns")

	// Pseudo layers.
	lRoot    = layerID(len(perLayer))     // the real operation, end to end
	lSlotDo  = layerID(len(perLayer) + 1) // in-process Slot.Do of the request
	lHandoff = layerID(len(perLayer) + 2) // Slot.Do of its fault-free twin
	lDirect  = layerID(len(perLayer) + 3) // round trip straight to a backend
	numLayer = len(perLayer) + 4
)

func (l layerID) String() string {
	switch l {
	case lRoot:
		return "root"
	case lSlotDo:
		return "service.slot_do"
	case lHandoff:
		return "service.handoff_ns"
	case lDirect:
		return "wire.direct_round_trip"
	}
	return perLayer[l].Name
}

// span is one recorded interval, as -trace-out writes it.
type span struct {
	Op     int    `json:"op"`     // spans of one operation share its id
	Name   string `json:"name"`   // the layer
	Start  int64  `json:"start"`  // ns since the suite began
	End    int64  `json:"end"`    // ns since the suite began
	Parent int    `json:"parent"` // index of the span that caused it; -1 for a root
}

type frame struct {
	l        layerID
	start    int64
	children int64 // ns covered by nested spans
	index    int   // of this span in spans, when kept
}

// tracer records the spans of one suite.
type tracer struct {
	base  time.Time
	self  []int64 // ns of self time per layer
	stack []frame

	op    int
	root  int    // index of the current operation's root span, when kept
	keep  bool   // retain spans for -trace-out
	spans []span // only when keep
}

func newTracer(keep bool) *tracer {
	return &tracer{base: time.Now(), self: make([]int64, numLayer), keep: keep, root: -1}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span of layer l nested in the innermost open span.
func (t *tracer) begin(l layerID) {
	f := frame{l: l, index: -1}
	if t.keep {
		parent := t.root
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].index
		}
		if l == lRoot {
			parent, t.root = -1, len(t.spans)
		}
		f.index = len(t.spans)
		t.spans = append(t.spans, span{Op: t.op, Name: l.String(), Parent: parent})
	}
	f.start = t.now()
	t.stack = append(t.stack, f)
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() int64 {
	now := t.now()
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	d := now - f.start
	t.self[f.l] += d - f.children
	if n > 0 {
		t.stack[n-1].children += d
	}
	if f.index >= 0 {
		t.spans[f.index].Start, t.spans[f.index].End = f.start, now
	}
	return d
}

// dump writes the kept spans as one JSON array.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
