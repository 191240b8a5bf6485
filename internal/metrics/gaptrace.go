package metrics

import (
	"sort"

	"sdds/internal/disk"
	"sdds/internal/sim"
)

// GapTrace records every idle gap of every disk with its start time, so a
// second simulation pass can replay them as perfect predictions (the
// Oracle policy's HintSource). It implements disk.IdleRecorder.
//
// Concurrency contract: a GapTrace is single-goroutine, like the engine it
// observes. RecordIdle is called only from the engine loop of the recording
// pass, and NextIdle/Len only after that pass has finished (the Oracle
// replay is a separate, later pass). Each policy=oracle run builds its own
// trace for its own pair of passes (cluster.RunPrepared), so the hot path
// needs no lock (it used to take a mutex per idle gap;
// TestGapTraceNotSharedAcrossRuns keeps the contract honest under -race).
type GapTrace struct {
	gaps map[int][]TracedGap
}

// TracedGap is one recorded idle period of a disk.
type TracedGap struct {
	Start sim.Time // when the gap began
	Gap   sim.Duration
}

// NewGapTrace returns an empty trace.
func NewGapTrace() *GapTrace {
	return &GapTrace{gaps: make(map[int][]TracedGap)}
}

// RecordIdle implements disk.IdleRecorder: the gap ended now, so it began
// at now − gap. Engine goroutine only.
func (t *GapTrace) RecordIdle(d *disk.Disk, gap sim.Duration) {
	t.gaps[d.ID] = append(t.gaps[d.ID], TracedGap{Start: d.Now() - gap, Gap: gap})
}

var _ disk.IdleRecorder = (*GapTrace)(nil)

// Len returns the number of recorded gaps for one disk.
func (t *GapTrace) Len(diskID int) int {
	return len(t.gaps[diskID])
}

// NextIdle implements power.HintSource: it returns the recorded gap whose
// start time is closest to now for the disk. Because the oracle run's
// timing drifts slightly from the recording run's, nearest-start matching
// is the right lookup.
func (t *GapTrace) NextIdle(diskID int, now sim.Time) (sim.Duration, bool) {
	gs := t.gaps[diskID]
	if len(gs) == 0 {
		return 0, false
	}
	i := sort.Search(len(gs), func(i int) bool { return gs[i].Start >= now })
	best := -1
	var bestDist sim.Duration
	for _, j := range []int{i - 1, i} {
		if j < 0 || j >= len(gs) {
			continue
		}
		d := gs[j].Start - now
		if d < 0 {
			d = -d
		}
		if best == -1 || d < bestDist {
			best, bestDist = j, d
		}
	}
	if best == -1 {
		return 0, false
	}
	return gs[best].Gap, true
}
