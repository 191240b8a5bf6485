package disk

import "sdds/internal/sim"

// EnergyAccount integrates power over virtual time, attributing energy and
// residence time to each disk state. The disk calls SetDraw on every state
// or RPM change; the account accumulates P·Δt joules since the last change.
// Per-state totals live in arrays indexed by State, so the per-change
// update hashes nothing.
type EnergyAccount struct {
	last      sim.Time
	drawW     float64
	state     State
	energyJ   [numStates]float64
	timeBy    [numStates]sim.Duration
	entered   [numStates]bool // states charged at least once: Breakdown's keys
	totalJ    float64
	startTime sim.Time
}

// reset (re)starts the account at time now in the given state drawing
// drawW watts.
func (a *EnergyAccount) reset(now sim.Time, state State, drawW float64) {
	*a = EnergyAccount{last: now, drawW: drawW, state: state, startTime: now}
}

// accrue charges the elapsed interval at the current draw.
func (a *EnergyAccount) accrue(now sim.Time) {
	if now < a.last {
		return // defensive: never uncharge
	}
	dt := now - a.last
	j := a.drawW * dt.Seconds()
	a.energyJ[a.state] += j
	a.timeBy[a.state] += dt
	a.entered[a.state] = true
	a.totalJ += j
	a.last = now
}

// SetDraw transitions the account to a new state/draw at time now, charging
// the interval since the previous change at the previous draw.
func (a *EnergyAccount) SetDraw(now sim.Time, state State, drawW float64) {
	a.accrue(now)
	a.state = state
	a.drawW = drawW
}

// TotalJoules returns cumulative energy up to time now.
func (a *EnergyAccount) TotalJoules(now sim.Time) float64 {
	a.accrue(now)
	return a.totalJ
}

// JoulesIn returns energy attributed to one state up to now.
func (a *EnergyAccount) JoulesIn(now sim.Time, s State) float64 {
	a.accrue(now)
	return a.energyJ[s]
}

// TimeIn returns residence time in one state up to now.
func (a *EnergyAccount) TimeIn(now sim.Time, s State) sim.Duration {
	a.accrue(now)
	return a.timeBy[s]
}

// Elapsed returns total accounted time up to now.
func (a *EnergyAccount) Elapsed(now sim.Time) sim.Duration {
	a.accrue(now)
	return now - a.startTime
}

// Breakdown returns the per-state energy up to now, keyed by every state
// the account has charged.
func (a *EnergyAccount) Breakdown(now sim.Time) map[State]float64 {
	a.accrue(now)
	out := make(map[State]float64, len(a.energyJ))
	for s, j := range a.energyJ {
		if a.entered[s] {
			out[State(s)] = j
		}
	}
	return out
}
