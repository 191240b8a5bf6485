package cluster

// DropIdleMachines empties the machine free list, so the next run builds
// a fresh machine.
func DropIdleMachines() {
	machines.Lock()
	clear(machines.idle)
	machines.idle = machines.idle[:0]
	machines.Unlock()
}

// IdleMachines reports how many machines sit on the free list.
func IdleMachines() int {
	machines.Lock()
	defer machines.Unlock()
	return len(machines.idle)
}
