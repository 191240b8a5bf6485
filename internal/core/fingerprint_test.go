package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/rand"
	"testing"

	"sdds/internal/stripe"
)

// scheduleFingerprint is the SHA-256 of every schedule the sweep in
// TestScheduleFingerprint produces. It was generated with the scheduler
// that evaluated every candidate slot's full R_t sum and sorted the θ
// candidates, so any change to a scheduling point, a table order, a tie
// set or its order shows up here. Regenerate only with a change whose
// purpose is to move scheduling points, and say how many moved.
const scheduleFingerprint = "54ccb2a52067a8a6c13ef4e4b41a70438f90f3b303299de194b1841f45576d78"

// fingerprintProblem builds one seeded random problem: 8 processes,
// lengths 1–4, a mix of pinned, short and long slacks, dense IDs in
// shuffled input order (so OrderInput differs from ID order), and
// windows that reach both ends of the slot space.
func fingerprintProblem(seed int64) (numSlots int, accs []*Access) {
	rng := rand.New(rand.NewSource(seed))
	numSlots = 40 + rng.Intn(100)
	n := 10 + rng.Intn(40)
	for i := 0; i < n; i++ {
		length := 1 + rng.Intn(4)
		begin := rng.Intn(numSlots)
		var end int
		switch rng.Intn(4) {
		case 0:
			end = begin // pinned
		case 1:
			end = begin + rng.Intn(4)
		default:
			end = begin + rng.Intn(numSlots-begin)
		}
		if end >= numSlots {
			end = numSlots - 1
		}
		nodes := []int{rng.Intn(8)}
		for k := rng.Intn(3); k > 0; k-- {
			nodes = append(nodes, rng.Intn(8))
		}
		accs = append(accs, &Access{
			ID: i, Proc: rng.Intn(8), Begin: begin, End: end, Length: length,
			Sig: stripe.SignatureOf(8, nodes...), Orig: end,
		})
	}
	rng.Shuffle(len(accs), func(i, j int) { accs[i], accs[j] = accs[j], accs[i] })
	return numSlots, accs
}

// emptyGroupProblem places accesses of distinct processes and disjoint
// nodes whose windows, tails included, overlap neither each other nor the
// ends of the slot space. Every group an access sees is empty, so all of
// its candidate R_t tie and pruning must keep the whole tie set.
func emptyGroupProblem(delta int) (numSlots int, accs []*Access) {
	stride := 60 + 2*delta
	for i := 0; i < 4; i++ {
		begin := delta + 5 + i*stride
		accs = append(accs, &Access{
			ID: i, Proc: i, Begin: begin, End: begin + 40 + i, Length: 1 + i,
			Sig: stripe.SignatureOf(8, 2*i, 2*i+1), Orig: begin + 40 + i,
		})
	}
	return 4*stride + delta + 10, accs
}

// tiePicker returns a deterministic RandomTies stand-in that records every
// tie-set size it is offered and picks a position that depends on the
// call count, so both the size and the order of each tie set are pinned.
func tiePicker(h hash.Hash) func(n int) int {
	calls := 0
	return func(n int) int {
		calls++
		writeInts(h, -1, n)
		return (calls*7 + 3) % n
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func writeInts(h hash.Hash, vs ...int) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
}

// hashSchedule folds every observable of a schedule into h: each access's
// point in ID order, the per-process tables in process order, and the
// packing and validation summaries.
func hashSchedule(t *testing.T, h hash.Hash, s *Schedule) {
	t.Helper()
	writeInts(h, s.Len())
	for _, as := range s.Assignments() {
		writeInts(h, as.ID, as.Point)
	}
	for _, p := range s.Procs() {
		tab := s.Table(p)
		writeInts(h, p, len(tab))
		for _, e := range tab {
			writeInts(h, e.Slot, e.AccessID, e.Orig, e.Length)
		}
	}
	rep, err := s.Validate()
	if err != nil {
		t.Fatal(err)
	}
	writeInts(h, rep.MaxPerNode, rep.ProcOverlaps, s.NodeActivations(), s.ActiveSlotCount())
}

// TestScheduleFingerprint pins the scheduler's output bit for bit over 40
// random problems and an all-ties problem, each scheduled under every
// θ ∈ {0,1,2,4}, δ ∈ {0,3,20}, processing order, weights on and off, and
// first-found versus picked ties.
func TestScheduleFingerprint(t *testing.T) {
	h := sha256.New()
	type problem struct {
		numSlots int
		accs     []*Access
	}
	var problems []problem
	for seed := int64(1); seed <= 40; seed++ {
		ns, accs := fingerprintProblem(seed)
		problems = append(problems, problem{ns, accs})
	}
	for _, delta := range []int{0, 3, 20} {
		ns, accs := emptyGroupProblem(delta)
		problems = append(problems, problem{ns, accs})
	}
	for pi, pr := range problems {
		for _, theta := range []int{0, 1, 2, 4} {
			for _, delta := range []int{0, 3, 20} {
				for _, order := range []OrderKind{OrderSlack, OrderInput, OrderLongestSlack} {
					for _, noWeights := range []bool{false, true} {
						for _, picked := range []bool{false, true} {
							writeInts(h, pi, theta, delta, int(order), boolInt(noWeights), boolInt(picked))
							p := Params{
								NumSlots: pr.numSlots, NumNodes: 8, Delta: delta, Theta: theta,
								NoWeights: noWeights, Order: order,
							}
							if picked {
								p.RandomTies = tiePicker(h)
							}
							s, err := NewScheduler(p)
							if err != nil {
								t.Fatal(err)
							}
							sched, err := s.Schedule(pr.accs)
							if err != nil {
								t.Fatal(err)
							}
							hashSchedule(t, h, sched)
						}
					}
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != scheduleFingerprint {
		t.Fatalf("schedule fingerprint %s, want %s", got, scheduleFingerprint)
	}
}

// TestPruningKeepsEveryTie schedules the all-ties problem with θ = 0 and
// checks that each access is offered every one of its candidate starts.
func TestPruningKeepsEveryTie(t *testing.T) {
	for _, delta := range []int{0, 3, 20} {
		for _, noWeights := range []bool{false, true} {
			ns, accs := emptyGroupProblem(delta)
			var offered []int
			s, err := NewScheduler(Params{
				NumSlots: ns, NumNodes: 8, Delta: delta, NoWeights: noWeights, Order: OrderInput,
				RandomTies: func(n int) int { offered = append(offered, n); return n - 1 },
			})
			if err != nil {
				t.Fatal(err)
			}
			sched, err := s.Schedule(accs)
			if err != nil {
				t.Fatal(err)
			}
			if len(offered) != len(accs) {
				t.Fatalf("δ=%d: %d tie sets offered, want %d", delta, len(offered), len(accs))
			}
			for i, a := range accs {
				if want := a.LatestStart() - a.Begin + 1; offered[i] != want {
					t.Errorf("δ=%d weights=%t: access %d offered %d tied starts, want %d", delta, !noWeights, a.ID, offered[i], want)
				}
				if p, _ := sched.PointOf(a.ID); p != a.LatestStart() {
					t.Errorf("δ=%d: access %d at %d, want the last tied start %d", delta, a.ID, p, a.LatestStart())
				}
			}
		}
	}
}

// TestPruningKeepsFloatTies covers a tie that the fixed-point estimates
// split: with 4 nodes and a = {0}, starts 0 and 3 of a length-2 access
// read inverse distances (1/3, 1/6) and (1/4, 1/4). Both sums round to
// exactly 0.5, but the floored estimate of the first is one unit below
// the second's, so only the error margin keeps start 0 among the
// contenders.
func TestPruningKeepsFloatTies(t *testing.T) {
	pin := func(id, proc, slot, length int, nodes ...int) *Access {
		return &Access{ID: id, Proc: proc, Begin: slot, End: slot, Length: length, Sig: sig4(nodes...), Orig: slot}
	}
	accs := []*Access{
		pin(0, 1, 0, 1, 0),       // G0 = {0}: distance 3
		pin(1, 2, 1, 1, 1),       // G1 = {1}: distance 6
		pin(2, 3, 2, 1, 1, 2, 3), // G2 = {1,2,3}: distance 8
		pin(3, 4, 3, 2, 0, 1),    // G3 = G4 = {0,1}: distance 4
		{ID: 4, Proc: 0, Begin: 0, End: 4, Length: 2, Sig: sig4(0), Orig: 4},
	}
	a := sig4(0)
	if r := a.InverseDistance(sig4(0)) + a.InverseDistance(sig4(1)); r != 0.5 {
		t.Fatalf("1/3 + 1/6 = %v in float64, want exactly 0.5", r)
	}
	for _, theta := range []int{0, 8} {
		var offered []int
		s, err := NewScheduler(Params{
			NumSlots: 5, NumNodes: 4, Theta: theta, Order: OrderInput,
			RandomTies: func(n int) int { offered = append(offered, n); return 0 },
		})
		if err != nil {
			t.Fatal(err)
		}
		sched, err := s.Schedule(accs)
		if err != nil {
			t.Fatal(err)
		}
		if p, _ := sched.PointOf(4); p != 0 {
			t.Errorf("θ=%d: access 4 at %d, want 0 (the earlier of two exact ties)", theta, p)
		}
		if theta == 0 && (len(offered) != 1 || offered[0] != 2) {
			t.Errorf("θ=0: tie sets offered %v, want [2]", offered)
		}
	}
}
