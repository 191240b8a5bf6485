package compiler

import (
	"encoding/json"
	"testing"
)

// FuzzArtifactRestore decodes artifact JSON and restores it with and
// without coalescing. Whatever Restore accepts must map every access's
// instance back to it, survive restoring its own artifact, and hold a
// schedule that passes Validate. The seeds are a real artifact and mutants
// Restore must refuse: a duplicated slack (which once restored with both
// instances mapped to one access), two swapped slacks, a process out of
// range and a point outside its access's slack.
func FuzzArtifactRestore(f *testing.F) {
	p := testProgram()
	p.Nests[0].Trips, p.Nests[1].Trips = 8, 8
	opts := DefaultOptions(2)
	res, err := Compile(p, opts)
	if err != nil {
		f.Fatal(err)
	}
	real := res.Artifact()
	if len(real.Slacks) < 2 || len(real.Points) == 0 {
		f.Fatalf("artifact has %d slacks and %d points", len(real.Slacks), len(real.Points))
	}
	mutants := []func(a *Artifact){
		func(*Artifact) {},
		func(a *Artifact) { a.Slacks = append(a.Slacks[:1:1], a.Slacks...) },
		func(a *Artifact) { a.Slacks[0], a.Slacks[1] = a.Slacks[1], a.Slacks[0] },
		func(a *Artifact) { a.Slacks[0].Proc = opts.Procs },
		func(a *Artifact) { a.Points[0].Point = a.Slacks[a.Points[0].ID].End + 1 },
	}
	for i, mutate := range mutants {
		a := *real
		a.Slacks = append([]SlackRecord(nil), real.Slacks...)
		a.Points = append(a.Points[:0:0], real.Points...)
		mutate(&a)
		if _, err := a.Restore(p, opts); (err == nil) != (i == 0) {
			f.Fatalf("seed %d: Restore error %v", i, err)
		}
		raw, err := json.Marshal(&a)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	coalesced := opts
	coalesced.CoalesceD = 3
	f.Fuzz(func(t *testing.T, raw []byte) {
		var art Artifact
		if json.Unmarshal(raw, &art) != nil {
			return
		}
		for _, o := range []Options{opts, coalesced} {
			r, err := art.Restore(p, o)
			if err != nil {
				continue
			}
			for id := range r.Accesses {
				inst, _ := r.InstanceOf(id)
				if got, ok := r.AccessFor(inst); !ok || got != id {
					t.Fatalf("CoalesceD=%d: AccessFor(InstanceOf(%d)) = %d, %t", o.CoalesceD, id, got, ok)
				}
			}
			again, err := r.Artifact().Restore(p, o)
			if err != nil {
				t.Fatalf("CoalesceD=%d: restoring the restored artifact: %v", o.CoalesceD, err)
			}
			if err := EquivalentResults(r, again); err != nil {
				t.Fatalf("CoalesceD=%d: second restore differs: %v", o.CoalesceD, err)
			}
			if _, err := r.Schedule.Validate(); err != nil {
				t.Fatalf("CoalesceD=%d: restored schedule: %v", o.CoalesceD, err)
			}
		}
	})
}
