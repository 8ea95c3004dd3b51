// Package energy models the prototype's power draw and integrates it over
// virtual time, reproducing Fig. 10's energy and energy-delay-product (EDP)
// comparison.
//
// The paper reports wall-plug measurements: platform idle 3.02 W, GPU
// baseline peak 4.67 W, SHMT (GPU + Edge TPU active) peak 5.23 W (§5.5).
// Decomposing: board idle 3.02 W, GPU active adds ~1.65 W, Edge TPU active
// adds ~0.56 W (the Coral M.2 module's ~0.5 W/TOPS envelope), CPU runtime
// activity adds ~0.3 W. Energy = Σ_device activePower×busyTime + boardIdle ×
// makespan, which reproduces the paper's observation that SHMT draws a
// higher peak but much less energy because the 1.95× speedup shortens the
// window during which anything draws power at all.
package energy

import "sort"

// Watts is power in watts.
type Watts = float64

// Joules is energy in joules.
type Joules = float64

// Profile is one device's power description.
type Profile struct {
	// Active is the incremental draw while executing an HLOP, above idle.
	Active Watts
	// Idle is the device's incremental standby draw above the board's base
	// (kept separate so removing a device from the system removes its idle).
	Idle Watts
}

// Model is the platform power model.
type Model struct {
	// BoardIdle is the base draw of the whole platform when nothing runs.
	BoardIdle Watts
	// Devices maps device name to its profile.
	Devices map[string]Profile
}

// DefaultModel returns the calibrated prototype model (see package comment).
func DefaultModel() Model {
	return Model{
		BoardIdle: 3.02,
		Devices: map[string]Profile{
			"cpu": {Active: 0.30, Idle: 0},
			"gpu": {Active: 1.65, Idle: 0},
			"tpu": {Active: 0.56, Idle: 0},
			// The DSP extension device (§2.1): on-SoC signal processors
			// draw well under a watt at full tilt.
			"dsp": {Active: 0.45, Idle: 0},
		},
	}
}

// Usage is one run's per-device busy time against a total makespan.
type Usage struct {
	Makespan float64            // end-to-end virtual latency, seconds
	Busy     map[string]float64 // device name -> busy seconds
}

// Breakdown splits a run's energy into active and idle parts, the stacking
// of Fig. 10's bars.
type Breakdown struct {
	Active Joules // device-active energy
	Idle   Joules // board + device idle energy over the makespan
}

// Total returns Active+Idle.
func (b Breakdown) Total() Joules { return b.Active + b.Idle }

// Energy integrates the model over a run. Devices are summed in name order:
// float addition does not associate, so ranging over the Busy map would let
// Go's map order decide the last bit of the result.
func (m Model) Energy(u Usage) Breakdown {
	var b Breakdown
	b.Idle = m.BoardIdle * u.Makespan
	var buf [8]string // keeps the usual handful of devices off the heap
	names := buf[:0]
	for name := range u.Busy {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p, ok := m.Devices[name]
		if !ok {
			continue
		}
		b.Active += p.Active * u.Busy[name]
		b.Idle += p.Idle * u.Makespan
	}
	return b
}

// PeakPower returns the draw when the given devices are simultaneously
// active — the paper's peak-power comparison (3.02 / 4.67 / 5.23 W).
func (m Model) PeakPower(activeDevices []string) Watts {
	p := m.BoardIdle
	for _, name := range activeDevices {
		if prof, ok := m.Devices[name]; ok {
			p += prof.Active + prof.Idle
		}
	}
	return p
}
