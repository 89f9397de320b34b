package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync/atomic"
)

// EventKind classifies a structured round event.
type EventKind uint8

// The round-event taxonomy. Each kind maps onto the paper's vocabulary:
// deadline misses and V_d substitutions are §4 assumption (b) — absence of
// a message is detectable, and protocols substitute the default value —
// made observable; verdict events carry which of D.1–D.4 applied, which is
// the degradation signal of §2's Observation.
const (
	// EvRoundOpen: a round's delivery completed and the round is open for
	// protocol steps. A = messages delivered into this round's inboxes.
	EvRoundOpen EventKind = iota + 1
	// EvRoundClose: every node's sends for the round were collected.
	// A = messages sent in the round (post-validation, pre-channel).
	EvRoundClose
	// EvDeadlineMiss: a round closed at its hold-back deadline with peer
	// batches still missing (cluster driver). Node = the observer,
	// A = missing peer count, B = the wait in nanoseconds.
	EvDeadlineMiss
	// EvLateBatch: a peer's round batch completed only after its round had
	// already closed, and was discarded as absent. Node = the late peer.
	EvLateBatch
	// EvVdSub: a peer's round batch was absent when the round closed, so
	// the protocol substitutes V_d for its claims. Node = the absent peer.
	EvVdSub
	// EvVerdict: a spec verdict was computed. A = the condition index
	// (1..4 for D.1..D.4, 0 for "none"), B = a bitmask of VerdictOK and
	// VerdictGraceful.
	EvVerdict
	// EvCheckpoint: a cluster node snapshotted its round state at a round
	// boundary. Node = the node, Round = the checkpointed round,
	// A = the checkpoint size in bytes.
	EvCheckpoint
	// EvRestart: a killed cluster node process came back up. Node = the
	// node, Round = the round it resumes at, A = its incarnation (1 for
	// the first respawn).
	EvRestart
	// EvRestore: a restarted node evaluated its checkpoint. Node = the
	// node, Round = the round it resumes at, A = a RestoreSource code,
	// B = the checkpoint's recorded round (-1 when none was readable). A
	// rejected checkpoint (corrupt, stale, missing) falls back to the
	// V_d-safe re-init: an empty tree whose missed rounds read as the
	// default value, §4 assumption (b) applied to the node's own past.
	EvRestore
	// EvEcho: an A-Cast instance reached its echo quorum and the node
	// broadcast ready. Node = the observer, A = the broadcaster's ID,
	// B = the echoed value. Asynchronous track only: quorum certificates
	// replace §4's deadline-closed rounds as the progress signal.
	EvEcho
	// EvReady: an A-Cast instance reached the f+1 ready-amplification
	// threshold and the node joined the ready wave without an echo quorum
	// of its own. Node = the observer, A = the broadcaster, B = the value.
	EvReady
	// EvCertify: an A-Cast instance assembled its 2f+1-ready delivery
	// certificate and the node A-Cast-delivered the value. Node = the
	// observer, A = the broadcaster, B = the certified value.
	EvCertify
)

// RestoreSource codes for EvRestore's A field, mirroring the cluster
// NodeReport's recovery source strings.
const (
	RestoreCheckpoint = iota // checkpoint verified and imported
	RestoreCorrupt           // checksum/shape rejection → V_d-safe re-init
	RestoreStale             // wrong-round checkpoint → V_d-safe re-init
	RestoreMissing           // no checkpoint on disk → V_d-safe re-init
)

// Verdict-event B-field bits.
const (
	VerdictOK       = 1 << 0
	VerdictGraceful = 1 << 1
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EvRoundOpen:
		return "roundOpen"
	case EvRoundClose:
		return "roundClose"
	case EvDeadlineMiss:
		return "deadlineMiss"
	case EvLateBatch:
		return "lateBatch"
	case EvVdSub:
		return "vdSub"
	case EvVerdict:
		return "verdict"
	case EvCheckpoint:
		return "checkpoint"
	case EvRestart:
		return "restart"
	case EvRestore:
		return "restore"
	case EvEcho:
		return "echo"
	case EvReady:
		return "ready"
	case EvCertify:
		return "certify"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// kindByName inverts String for JSON decoding.
var kindByName = map[string]EventKind{
	"roundOpen": EvRoundOpen, "roundClose": EvRoundClose,
	"deadlineMiss": EvDeadlineMiss, "lateBatch": EvLateBatch,
	"vdSub": EvVdSub, "verdict": EvVerdict,
	"checkpoint": EvCheckpoint, "restart": EvRestart, "restore": EvRestore,
	"echo": EvEcho, "ready": EvReady, "certify": EvCertify,
}

// ConditionIndex maps a spec condition name ("D.1".."D.4", anything else =
// none) to the verdict event's A field.
func ConditionIndex(condition string) int64 {
	switch condition {
	case "D.1":
		return 1
	case "D.2":
		return 2
	case "D.3":
		return 3
	case "D.4":
		return 4
	default:
		return 0
	}
}

// ConditionName inverts ConditionIndex.
func ConditionName(idx int64) string {
	if idx >= 1 && idx <= 4 {
		return fmt.Sprintf("D.%d", idx)
	}
	return "none"
}

// VerdictEvent builds the EvVerdict event for a spec verdict.
func VerdictEvent(condition string, ok, graceful bool) Event {
	var b int64
	if ok {
		b |= VerdictOK
	}
	if graceful {
		b |= VerdictGraceful
	}
	return Event{Kind: EvVerdict, A: ConditionIndex(condition), B: b}
}

// Event is one structured round event. Node and Round are -1/0 when not
// applicable; A and B are kind-specific payloads (see the kind docs).
type Event struct {
	Kind  EventKind `json:"kind"`
	Node  int16     `json:"node,omitempty"`
	Round int32     `json:"round,omitempty"`
	A     int64     `json:"a,omitempty"`
	B     int64     `json:"b,omitempty"`
}

// eventJSON is the wire form: the kind as its string name.
type eventJSON struct {
	Kind  string `json:"kind"`
	Node  int16  `json:"node,omitempty"`
	Round int32  `json:"round,omitempty"`
	A     int64  `json:"a,omitempty"`
	B     int64  `json:"b,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (e Event) MarshalJSON() ([]byte, error) {
	return json.Marshal(eventJSON{Kind: e.Kind.String(), Node: e.Node, Round: e.Round, A: e.A, B: e.B})
}

// UnmarshalJSON implements json.Unmarshaler.
func (e *Event) UnmarshalJSON(b []byte) error {
	var ej eventJSON
	if err := json.Unmarshal(b, &ej); err != nil {
		return err
	}
	kind, ok := kindByName[ej.Kind]
	if !ok {
		return fmt.Errorf("obs: unknown event kind %q", ej.Kind)
	}
	*e = Event{Kind: kind, Node: ej.Node, Round: ej.Round, A: ej.A, B: ej.B}
	return nil
}

// Sink receives structured round events. The round engine, the cluster
// node runtime, the serving runtime, and the chaos campaign engine all
// emit through this one interface; Tracer is the standard implementation.
// Implementations must be safe for concurrent Emit calls.
type Sink interface {
	Emit(Event)
}

// traceSlot is one ring entry. Payload words are atomics so concurrent
// Emit/Events never race; seq is a per-slot seqlock: a reader accepts the
// slot only when seq carries the same ticket before and after reading the
// payload, so a wrapped-over slot is skipped rather than read torn.
type traceSlot struct {
	seq atomic.Uint64 // ticket (1-based) that last completed this slot
	hdr atomic.Uint64 // kind<<48 | uint16(node)<<32 | uint32(round)
	a   atomic.Int64
	b   atomic.Int64
}

func packHdr(e Event) uint64 {
	return uint64(e.Kind)<<48 | uint64(uint16(e.Node))<<32 | uint64(uint32(e.Round))
}

func unpackHdr(h uint64) Event {
	return Event{
		Kind:  EventKind(h >> 48),
		Node:  int16(uint16(h >> 32)),
		Round: int32(uint32(h)),
	}
}

// Tracer is a fixed-capacity, lock-free ring buffer of round events: the
// always-on flight recorder behind -trace. Emit is allocation-free and
// wait-free (one atomic ticket plus four atomic stores); when the ring
// wraps, the oldest events are overwritten. The zero value is not usable;
// construct with NewTracer.
type Tracer struct {
	mask  uint64
	next  atomic.Uint64 // tickets issued (1-based)
	slots []traceSlot
}

// NewTracer returns a tracer holding the most recent capacity events
// (rounded up to a power of two, minimum 64).
func NewTracer(capacity int) *Tracer {
	size := 64
	for size < capacity {
		size <<= 1
	}
	return &Tracer{mask: uint64(size - 1), slots: make([]traceSlot, size)}
}

// Cap returns the ring capacity.
func (t *Tracer) Cap() int { return len(t.slots) }

// Emit implements Sink.
func (t *Tracer) Emit(e Event) {
	ticket := t.next.Add(1)
	s := &t.slots[(ticket-1)&t.mask]
	s.seq.Store(0) // mark in-progress so readers skip the half-written slot
	s.hdr.Store(packHdr(e))
	s.a.Store(e.A)
	s.b.Store(e.B)
	s.seq.Store(ticket)
}

// Total returns the number of events ever emitted (including overwritten
// ones).
func (t *Tracer) Total() uint64 { return t.next.Load() }

// Events returns the buffered events, oldest first. Slots being rewritten
// concurrently are skipped (the seqlock detects them); in quiescent use —
// dumping the ring at shutdown, comparing deterministic runs — the stream
// is exact and ordered by emission.
func (t *Tracer) Events() []Event {
	issued := t.next.Load()
	size := uint64(len(t.slots))
	first := uint64(1)
	if issued > size {
		first = issued - size + 1
	}
	events := make([]Event, 0, issued-first+1)
	for ticket := first; ticket <= issued; ticket++ {
		s := &t.slots[(ticket-1)&t.mask]
		if s.seq.Load() != ticket {
			continue // being rewritten (or not yet complete)
		}
		e := unpackHdr(s.hdr.Load())
		e.A = s.a.Load()
		e.B = s.b.Load()
		if s.seq.Load() != ticket {
			continue // overwritten mid-read; drop the torn payload
		}
		events = append(events, e)
	}
	return events
}

// WriteJSONL writes events as JSON lines (the -trace dump format).
func WriteJSONL(w io.Writer, events []Event) error {
	enc := json.NewEncoder(w)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSONLFile creates path and writes events to it as JSON lines.
func WriteJSONLFile(path string, events []Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteJSONL(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadJSONL decodes a JSONL event stream (the inverse of WriteJSONL).
func ReadJSONL(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	var events []Event
	for {
		var e Event
		if err := dec.Decode(&e); err == io.EOF {
			return events, nil
		} else if err != nil {
			return nil, err
		}
		events = append(events, e)
	}
}
