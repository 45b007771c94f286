package sim

// Stats are per-run scheduler counters, collected by every engine path so
// speedup regressions are diagnosable: a multi-node scenario that shows
// ParallelSections == 0 is bounded by radio chatter (the conservative
// lookahead collapses to lockstep rounds), one with many sections but few
// ParallelAdvances per section has too few simultaneously runnable nodes
// for a section to beat lockstep by much. The "Parallel" names are
// historical: section members are independent and could run concurrently,
// but they advance one after another on the scheduler goroutine.
type Stats struct {
	// Rounds counts realized lockstep rounds (two or more runnable nodes
	// with too short a lookahead for a section, or a due network event
	// forcing lockstep).
	Rounds uint64
	// IdleJumps counts globally-idle jumps straight to the next event.
	IdleJumps uint64
	// SoloJumps counts single-runnable AdvanceJump fast paths.
	SoloJumps uint64
	// ParallelSections counts conservative-lookahead sections entered:
	// stretches where two or more independent nodes advanced toward a
	// common horizon.
	ParallelSections uint64
	// HorizonBarriers counts section barriers completed — each merges the
	// staged medium events and re-derives every member's scheduler caches.
	HorizonBarriers uint64
	// ParallelAdvances counts node-advance tasks executed inside sections
	// (ParallelAdvances / ParallelSections is the mean section width).
	ParallelAdvances uint64
	// StagedEvents counts medium events buffered during sections and
	// deterministically re-sequenced at barriers.
	StagedEvents uint64
	// WorkersParked is always 0: sections run on the scheduler goroutine,
	// so there is no worker pool to park. The field stays because stored
	// bundles and the benchmark harness still read it.
	WorkersParked uint64
}

// Stats returns the scheduler counters accumulated so far.
func (s *Sim) Stats() Stats { return s.stats }
