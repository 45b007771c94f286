package sim

// Conservative-lookahead sections.
//
// Between medium events, nodes are causally independent: the only way one
// node's execution reaches another inside the simulator is through the
// shared radio medium, and every node-initiated medium action (MAC.Submit)
// is separated from its earliest shared-queue event by at least
// medium.MinSubmitDelay cycles of random backoff. A section therefore picks
// a horizon H no node can affect before it:
//
//	H = min(until,
//	        round(next network event) - quantum,   // lockstep resumes there
//	        clock + the largest whole-quantum span < MinSubmitDelay)
//
// and advances every runnable node toward H, one after another on the
// scheduler goroutine, with medium callbacks staged per MAC instead of
// entering the shared queue. At the horizon barrier the staged events are
// merged in the exact order the lockstep engine would have assigned (submit
// round, then node index, then per-node order), so serialized traces stay
// byte-identical to the fixed-quantum reference scheduler. Because a
// section's node advances are independent, the order they run in within a
// pass is unobservable. Running them concurrently does not pay: a section
// spans under MinSubmitDelay cycles, too little node work to amortize a
// cross-core barrier.
//
// The one global artifact nodes cannot reproduce independently is the
// lockstep grid itself: the lockstep engine re-anchors its round grid
// whenever the system goes globally idle (it jumps straight to the next
// event, which is rarely quantum-aligned). A node alone cannot know whether
// its nap was globally idle. Sections therefore never resume a node past an
// idle boundary blindly: each node runs until it first parks (node.JumpIdle),
// and the barrier replays the lockstep scheduler's wake decisions — a
// parked node is woken inside the section only while some other node's
// execution provably covered the grid up to its wake round (the coverage
// frontier T below). If the whole section parks before H, the section ends
// at the frontier and the main loop performs the same globally-idle jump,
// and grid re-anchoring, the lockstep engine would.

import (
	"fmt"
	"math"

	"sentomist/internal/medium"
	"sentomist/internal/node"
)

// trySection attempts one conservative section. It returns false when the
// lookahead window is too small to beat a plain lockstep round (a due
// network event, or fewer than two quanta of guaranteed independence); the
// caller then falls back to the lockstep paths.
func (s *Sim) trySection(until uint64) (bool, error) {
	c, q := s.clock, s.quantum
	h := until
	if s.net != nil {
		if at, ok := s.net.NextEvent(); ok {
			b := gridUp(c, q, at)
			if b <= c+q {
				return false, nil // network event in the first round
			}
			if b-q < h {
				h = b - q
			}
		}
		if s.net.HasMACs() {
			// Node execution can schedule a medium event no earlier than
			// MinSubmitDelay after the section starts; stay strictly below.
			span := q * ((medium.MinSubmitDelay - 1) / q)
			if c+span < h {
				h = c + span
			}
		}
	}
	if h <= c+q {
		return false, nil
	}

	pass := s.members[:0]
	for i := range s.nodes {
		if s.runnable[i] {
			pass = append(pass, sectionTask{idx: i, from: c})
		}
		s.sectStop[i] = 0
		s.sectDead[i] = false
	}
	if len(pass) < 2 {
		return false, nil
	}
	s.stats.ParallelSections++
	if s.net != nil {
		s.net.BeginStaging()
	}

	// Coverage fixpoint: run passes of node advances; t is the frontier up
	// to which some node was provably runnable at every round boundary, i.e.
	// up to which the lockstep engine keeps this grid.
	t := c
	for len(pass) > 0 {
		s.stats.ParallelAdvances += uint64(len(pass))
		for _, tk := range pass {
			s.advanceSection(tk.idx, tk.from, c, q, h)
			if s.sectStop[tk.idx] > t {
				t = s.sectStop[tk.idx]
			}
		}
		// Wake every parked or dormant node whose wake round the frontier
		// covers — exactly the nodes the lockstep engine's rounds would
		// have advanced by now.
		pass = pass[:0]
		for i := range s.nodes {
			if s.halted[i] || s.sectDead[i] || s.sectStop[i] >= h {
				continue
			}
			w := uint64(math.MaxUint64)
			if s.sectStop[i] > 0 {
				// Advanced this section: the cache is stale, ask the node.
				if at, ok := s.nodes[i].NextDeviceEvent(); ok {
					w = at
				}
			} else if !s.runnable[i] {
				w = s.wake[i]
			}
			if w > h {
				continue
			}
			b := gridUp(c, q, w)
			if b > until {
				// The lockstep engine clamps its final round to the run
				// end, so a wake inside the run is served no later than it.
				b = until
			}
			if b <= t {
				pass = append(pass, sectionTask{idx: i, from: b})
			}
		}
	}
	s.members = pass[:0]

	// Horizon barrier: merge staged medium events deterministically, then
	// re-derive every advanced node's scheduler caches in index order.
	s.stats.HorizonBarriers++
	if s.net != nil {
		ids := s.sectIDs[:0]
		for i := range s.nodes {
			if s.sectStop[i] > 0 {
				ids = append(ids, s.nodes[i].ID)
			}
		}
		s.sectIDs = ids[:0]
		s.stats.StagedEvents += uint64(s.net.CommitStaged(ids, c, q))
	}
	errIdx := -1
	for i := range s.nodes {
		if s.sectStop[i] == 0 {
			continue
		}
		s.lastTarget[i] = s.sectStop[i]
		s.mustAdvance[i] = false
		s.refresh(i)
		if s.sectDead[i] && s.nodes[i].Err() != nil {
			if errIdx < 0 || s.sectStop[i] < s.sectStop[errIdx] {
				errIdx = i
			}
		}
	}
	if t > s.clock {
		s.clock = t
	}
	if errIdx >= 0 {
		// The lockstep engine would have aborted at this fault's round;
		// the section completed its horizon first, so sibling nodes may
		// have advanced further than a lockstep run would. The chosen
		// fault is the one the lockstep engine reports (earliest round,
		// then lowest node index).
		return true, fmt.Errorf("sim: %w", s.nodes[errIdx].Err())
	}
	return true, nil
}

// advanceSection advances node idx inside a section: wake it at boundary
// `from` if it was parked or dormant (a plain advance, exactly like the
// lockstep round that would have picked it up), then run it toward h on
// the section grid. It records where the node stopped; it never resumes past
// an idle boundary (see the package comment on grid re-anchoring).
func (s *Sim) advanceSection(idx int, from, c, q, h uint64) {
	nd := s.nodes[idx]
	if from > c {
		s.lastTarget[idx] = from
		nd.Advance(from)
		if nd.Halted() {
			s.sectStop[idx], s.sectDead[idx] = from, true
			return
		}
		if !nd.Runnable() {
			s.sectStop[idx] = from
			return
		}
	}
	s.lastTarget[idx] = h
	b, st := nd.AdvanceJump(h, c, q, nil)
	s.sectStop[idx] = b
	s.sectDead[idx] = st == node.JumpDead
}

// sectionTask is one node advance inside a section pass.
type sectionTask struct {
	idx  int
	from uint64 // wake boundary; == section start for already-running nodes
}
