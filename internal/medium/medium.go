// Package medium simulates the shared radio channel and the CSMA MAC layer
// of every node (the stand-in for the CC1000 stack in the paper's Case II).
//
// The model captures exactly the properties the paper's bugs depend on:
//
//   - A send occupies the MAC for the whole control exchange — random
//     backoff, carrier sense, RTS, CTS, DATA, ACK — so there is a long
//     "busy" window during which further send requests are rejected.
//   - Frames take airtime proportional to their length at a CC1000-class
//     bitrate; overlapping transmissions at a receiver collide and corrupt.
//   - Links are lossy with per-link probabilities, and every random draw
//     comes from a seeded stream, keeping runs reproducible.
//
// The network runs on the global cycle clock through an internal event
// queue; no goroutines, no wall-clock time.
package medium

import (
	"container/heap"
	"fmt"
	"sort"

	"sentomist/internal/randx"
)

// Broadcast is the destination ID for broadcast frames. Broadcasts skip the
// RTS/CTS/ACK handshake: the frame is aired once and delivered to every
// audible neighbour.
const Broadcast = 255

// Air-interface timing in cycles (1 cycle = 1 µs at the 1 MHz clock),
// modeled on a 19.2 kbit/s CC1000-class radio.
const (
	CyclesPerByte  = 417 // ~52 µs/bit
	FrameOverhead  = 8   // preamble + sync + header bytes
	ControlBytes   = 6   // RTS/CTS/ACK frame length (incl. overhead)
	TurnaroundGap  = 120 // RX<->TX turnaround
	BackoffSlot    = 300
	BackoffWindow  = 16 // initial backoff is 1..BackoffWindow slots
	MaxCSMATries   = 6  // carrier-sense attempts before giving up
	MaxRetries     = 2  // full RTS..ACK retries after the first attempt
	TimeoutSlack   = 200
	ReserveTimeout = 4000 // receiver holds an RTS reservation this long
)

type frameKind uint8

const (
	frameRTS frameKind = iota + 1
	frameCTS
	frameData
	frameACK
)

func (k frameKind) String() string {
	switch k {
	case frameRTS:
		return "RTS"
	case frameCTS:
		return "CTS"
	case frameData:
		return "DATA"
	case frameACK:
		return "ACK"
	}
	return "?"
}

type frame struct {
	kind    frameKind
	src     int
	dst     int
	payload []byte
}

func (f frame) airtime() uint64 {
	switch f.kind {
	case frameData:
		return uint64(FrameOverhead+len(f.payload)) * CyclesPerByte
	default:
		return ControlBytes * CyclesPerByte
	}
}

// transmission is a frame on the air.
type transmission struct {
	f     frame
	start uint64
	end   uint64
}

// Delivery records a data frame handed to a node's radio, for tests and
// experiment assertions (e.g. observing polluted payloads end to end).
type Delivery struct {
	Cycle   uint64
	Src     int
	Dst     int
	Payload []byte
}

// Client is the radio front end above a MAC (implemented by dev.Radio).
type Client interface {
	OnTxDone(status uint8)
	OnReceive(src int, payload []byte)
}

// TX completion codes, mirroring dev's constants (kept separate to avoid an
// import; the values must match dev.TxStatOK / dev.TxStatNoAck).
const (
	txOK    = 0
	txNoAck = 1
)

// event is a scheduled network action: either a frame delivery (tx set) or
// a callback, optionally guarded by a generation counter — the callback
// fires only if *guard still holds the generation it was scheduled with.
// Carrying the guard in the event rather than closing over it keeps the
// hot scheduling paths allocation-free (events and transmissions recycle
// on per-network freelists).
type event struct {
	at  uint64
	seq uint64

	fn    func(now uint64)
	guard *uint64
	gen   uint64

	// Delivery fields, used when tx != nil (fn is nil then).
	tx   *transmission
	dst  *MAC
	lost bool
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Network is the shared channel plus all MACs.
type Network struct {
	rng   *randx.RNG
	macs  map[int]*MAC
	ids   []int              // registered node IDs, sorted (deterministic receiver order)
	loss  map[[2]int]float64 // directed link -> loss probability; absent = no link
	queue eventQueue
	seq   uint64
	now   uint64

	onAir      []*transmission
	deliveries []Delivery

	freeEvents []*event
	freeTx     []*transmission

	// staging redirects node-initiated MAC callbacks (Submit's backoff
	// timer) into per-MAC buffers instead of the shared queue, so a
	// section's nodes advance independently; see BeginStaging.
	staging       bool
	stagedScratch []stagedEvent
}

// NewNetwork creates an empty network drawing randomness from rng.
func NewNetwork(rng *randx.RNG) *Network {
	return &Network{
		rng:  rng,
		macs: make(map[int]*MAC),
		loss: make(map[[2]int]float64),
	}
}

// AddLink declares a directed radio link from a to b with the given frame
// loss probability. Call twice for a symmetric link.
func (n *Network) AddLink(a, b int, lossProb float64) {
	n.loss[[2]int{a, b}] = lossProb
}

// AddSymmetricLink declares links in both directions with equal loss.
func (n *Network) AddSymmetricLink(a, b int, lossProb float64) {
	n.AddLink(a, b, lossProb)
	n.AddLink(b, a, lossProb)
}

// NewMAC creates and registers the MAC of node id. The client must be set
// with MAC.SetClient before traffic flows.
func (n *Network) NewMAC(id int) *MAC {
	if _, dup := n.macs[id]; dup {
		panic(fmt.Sprintf("medium: duplicate MAC for node %d", id))
	}
	m := &MAC{net: n, id: id, rng: n.rng.Split(uint64(id) + 1)}
	m.bind()
	n.macs[id] = m
	n.ids = append(n.ids, id)
	sort.Ints(n.ids)
	return m
}

// Deliveries returns all data-frame deliveries so far. The slice is owned
// by the network; callers must not modify it.
func (n *Network) Deliveries() []Delivery { return n.deliveries }

// NextEvent returns the cycle of the earliest pending network event.
func (n *Network) NextEvent() (uint64, bool) {
	if len(n.queue) == 0 {
		return 0, false
	}
	return n.queue[0].at, true
}

// Advance runs all network events scheduled at or before cycle.
func (n *Network) Advance(cycle uint64) {
	for len(n.queue) > 0 && n.queue[0].at <= cycle {
		e := heap.Pop(&n.queue).(*event)
		if e.at > n.now {
			n.now = e.at
		}
		n.fire(e)
		*e = event{}
		n.freeEvents = append(n.freeEvents, e)
	}
	if cycle > n.now {
		n.now = cycle
	}
	n.pruneAir(cycle)
}

// fire dispatches one popped event. A delivery event re-checks channel
// conditions at fire time (collision, half-duplex) exactly as the former
// per-receiver closures did; a guarded callback is dropped when its side's
// generation moved on.
func (n *Network) fire(e *event) {
	if e.tx != nil {
		if e.lost {
			return
		}
		if n.collided(e.tx, e.dst.id) {
			return
		}
		if e.dst.airingUntil > e.tx.start {
			// Receiver was transmitting during (part of) the frame:
			// half-duplex radios miss it.
			return
		}
		e.dst.onFrame(e.at, e.tx.f)
		return
	}
	if e.guard != nil && *e.guard != e.gen {
		return
	}
	e.fn(e.at)
}

// newEvent takes an event from the freelist (or allocates one) and stamps
// it with the scheduling time and the global tiebreak sequence.
func (n *Network) newEvent(at uint64) *event {
	var e *event
	if k := len(n.freeEvents); k > 0 {
		e = n.freeEvents[k-1]
		n.freeEvents = n.freeEvents[:k-1]
	} else {
		e = &event{}
	}
	n.seq++
	e.at, e.seq = at, n.seq
	return e
}

func (n *Network) schedule(at uint64, fn func(now uint64)) {
	e := n.newEvent(at)
	e.fn = fn
	heap.Push(&n.queue, e)
}

// scheduleGuarded schedules fn to fire only if *guard still equals gen.
func (n *Network) scheduleGuarded(at uint64, guard *uint64, gen uint64, fn func(now uint64)) {
	e := n.newEvent(at)
	e.fn, e.guard, e.gen = fn, guard, gen
	heap.Push(&n.queue, e)
}

func (n *Network) scheduleDelivery(at uint64, tx *transmission, dst *MAC, lost bool) {
	e := n.newEvent(at)
	e.tx, e.dst, e.lost = tx, dst, lost
	heap.Push(&n.queue, e)
}

func (n *Network) pruneAir(now uint64) {
	kept := n.onAir[:0]
	for _, t := range n.onAir {
		// Keep a transmission around for one extra airtime so the
		// collision check of late-overlapping frames still sees it. Once
		// invisible, no event can reference it anymore (its delivery fires
		// at t.end, strictly inside the visibility window), so it recycles.
		if t.end+t.end-t.start >= now {
			kept = append(kept, t)
		} else {
			*t = transmission{}
			n.freeTx = append(n.freeTx, t)
		}
	}
	n.onAir = kept
}

// HasMACs reports whether any MAC is registered — i.e. whether node
// execution can reach the shared event queue at all. Radio-less scenarios
// still carry an (empty) Network, and schedulers use this to decide whether
// the MinSubmitDelay lookahead bound applies.
func (n *Network) HasMACs() bool { return len(n.macs) > 0 }

// MinSubmitDelay is the minimum delay, in cycles, between a node-initiated
// MAC action and the earliest shared-queue event it can create: Submit
// always passes through a random backoff of at least one slot. It is the
// conservative lookahead of the scheduler's sections — a section of strictly
// fewer cycles can never be invalidated by another node's submit.
const MinSubmitDelay = BackoffSlot

// stagedEvent is a queue entry captured during a staging section instead of
// being pushed to the shared heap. submitAt (the cycle of the node action
// that created it) orders the entry against other MACs' staged entries when
// the section commits.
type stagedEvent struct {
	submitAt uint64
	at       uint64
	guard    *uint64
	gen      uint64
	fn       func(now uint64)
}

// BeginStaging enters a staging section: until CommitStaged, callbacks
// scheduled from node execution (MAC.Submit) are buffered on the submitting
// MAC instead of the shared queue. Within a section each MAC may only be
// driven by its own node, so a section's node advances never touch shared
// network state and may run in any order. Advance must not be called while
// staging.
func (n *Network) BeginStaging() { n.staging = true }

// CommitStaged ends a staging section and schedules everything the listed
// MACs buffered, reproducing the order a sequential lockstep engine would
// have assigned: ascending submit round (the lockstep grid is anchored at
// `anchor` with step `quantum`), then list order (callers pass node-index
// order), then per-MAC submit order. Fresh queue sequence numbers are drawn
// in exactly that order, so later ties on fire time resolve identically to
// a sequential run. IDs absent from the network are ignored.
func (n *Network) CommitStaged(ids []int, anchor, quantum uint64) int {
	n.staging = false
	if quantum == 0 {
		quantum = 1
	}
	buf := n.stagedScratch[:0]
	for _, id := range ids {
		m, ok := n.macs[id]
		if !ok {
			continue
		}
		buf = append(buf, m.staged...)
		m.staged = m.staged[:0]
	}
	if len(buf) > 1 {
		round := func(at uint64) uint64 {
			if at <= anchor {
				return anchor
			}
			return anchor + quantum*((at-anchor+quantum-1)/quantum)
		}
		sort.SliceStable(buf, func(i, j int) bool {
			return round(buf[i].submitAt) < round(buf[j].submitAt)
		})
	}
	for i := range buf {
		e := n.newEvent(buf[i].at)
		e.fn, e.guard, e.gen = buf[i].fn, buf[i].guard, buf[i].gen
		heap.Push(&n.queue, e)
		buf[i] = stagedEvent{}
	}
	n.stagedScratch = buf[:0]
	return len(buf)
}

// linkLoss returns the loss probability of src->dst, and whether the link
// exists.
func (n *Network) linkLoss(src, dst int) (float64, bool) {
	p, ok := n.loss[[2]int{src, dst}]
	return p, ok
}

// carrierBusyAt reports whether node id hears any transmission at cycle t.
func (n *Network) carrierBusyAt(id int, t uint64) bool {
	for _, tx := range n.onAir {
		if tx.f.src == id {
			continue
		}
		if _, audible := n.linkLoss(tx.f.src, id); !audible {
			continue
		}
		if tx.start <= t && t < tx.end {
			return true
		}
	}
	return false
}

// air puts a frame on the channel at time now and schedules its reception
// at every audible destination. Receivers are visited in node-ID order:
// the loss draws consume the shared random stream, so iteration order must
// be deterministic or runs would not replay.
func (n *Network) air(now uint64, f frame) *transmission {
	var tx *transmission
	if k := len(n.freeTx); k > 0 {
		tx = n.freeTx[k-1]
		n.freeTx = n.freeTx[:k-1]
	} else {
		tx = &transmission{}
	}
	tx.f, tx.start, tx.end = f, now, now+f.airtime()
	n.onAir = append(n.onAir, tx)
	for _, id := range n.ids {
		if id == f.src {
			continue
		}
		if f.dst != Broadcast && f.dst != id {
			// Unicast control/data frames still occupy the channel
			// for overhearers (carrier sense sees them via onAir),
			// but are not decoded by third parties.
			continue
		}
		p, audible := n.linkLoss(f.src, id)
		if !audible {
			continue
		}
		// A lost frame still draws from the shared stream (replay
		// determinism) and still schedules, so event ordering is
		// unchanged; the delivery is simply dropped at fire time.
		n.scheduleDelivery(tx.end, tx, n.macs[id], n.rng.Bool(p))
	}
	return tx
}

// collided reports whether another audible transmission overlapped tx at
// receiver id. The check runs when tx's delivery event fires (at tx.end), so
// visibility must be a pure function of time, not of how often Advance was
// called: a finished transmission stops counting once its collision window
// (one extra airtime past its end) has expired. pruneAir merely reclaims
// memory for entries that are already invisible under this rule.
func (n *Network) collided(tx *transmission, id int) bool {
	for _, other := range n.onAir {
		if other == tx || other.f.src == tx.f.src || other.f.src == id {
			continue
		}
		if other.end+(other.end-other.start) < tx.end {
			continue // collision window expired before the check time
		}
		if _, audible := n.linkLoss(other.f.src, id); !audible {
			continue
		}
		if other.start < tx.end && tx.start < other.end {
			return true
		}
	}
	return false
}
