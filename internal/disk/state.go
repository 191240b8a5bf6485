package disk

// State is the disk power/activity state. States beyond Standby draw
// RPM-dependent power per Eq. 1 of the paper.
type State int

// Disk states. Start at 1 so the zero value is invalid (catches
// uninitialized accounting).
const (
	// StateStandby: spindle stopped, electronics on.
	StateStandby State = iota + 1
	// StateSpinningUp: spindle accelerating from standby to full speed.
	StateSpinningUp
	// StateSpinningDown: spindle decelerating to standby.
	StateSpinningDown
	// StateIdle: rotating at the current RPM, no request in service.
	StateIdle
	// StateSeeking: head movement (plus rotational settle) for a request.
	StateSeeking
	// StateTransferring: media read/write in progress.
	StateTransferring
	// StateShiftingRPM: moving between rotational speeds (no service).
	StateShiftingRPM

	// numStates sizes arrays indexed by State (index 0 is unused).
	numStates = iota + 1
)

var stateNames = map[State]string{
	StateStandby:      "standby",
	StateSpinningUp:   "spin-up",
	StateSpinningDown: "spin-down",
	StateIdle:         "idle",
	StateSeeking:      "seek",
	StateTransferring: "transfer",
	StateShiftingRPM:  "rpm-shift",
}

// String returns the lowercase state name.
func (s State) String() string {
	if n, ok := stateNames[s]; ok {
		return n
	}
	return "invalid"
}

// Serving reports whether the state is part of request service.
func (s State) Serving() bool { return s == StateSeeking || s == StateTransferring }

// Spinning reports whether the platters are rotating at an operational
// speed (i.e. the disk could accept work without a spin-up).
func (s State) Spinning() bool {
	switch s {
	case StateIdle, StateSeeking, StateTransferring, StateShiftingRPM:
		return true
	default:
		return false
	}
}

// AllStates lists every valid state, for iteration in accounting and tests.
func AllStates() []State {
	return []State{
		StateStandby, StateSpinningUp, StateSpinningDown, StateIdle,
		StateSeeking, StateTransferring, StateShiftingRPM,
	}
}
