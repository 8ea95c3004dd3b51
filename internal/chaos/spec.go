package chaos

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ParseSpec parses the CLI fault-plan syntax into per-device configs:
//
//	device:key=value[,key=value...][;device:...]
//
// e.g. "tpu:die=5;gpu:transient=0.2,latmul=4". Keys:
//
//	transient=P   transient error probability per dispatch
//	failfirst=N   fail the first N dispatches deterministically
//	die=N         permanent death after N dispatches
//	latmul=X      constant latency multiplier (≥ 1)
//	spike=P       latency-spike probability per dispatch
//	spikemul=X    spike size multiplier (≥ 1; default 10)
//	corrupt=P     output-corruption probability per dispatch
//	corruptmag=X  relative corruption magnitude (default 0.05)
//
// Every value is a finite, non-negative number: a probability P lies in
// [0, 1], a count N is an integer below 2³¹, a multiplier X is at least 1.
// seed is applied to every parsed config so one flag reproduces one schedule.
func ParseSpec(spec string, seed int64) (map[string]Config, error) {
	out := map[string]Config{}
	for _, devSpec := range strings.Split(spec, ";") {
		devSpec = strings.TrimSpace(devSpec)
		if devSpec == "" {
			continue
		}
		name, plan, ok := strings.Cut(devSpec, ":")
		name = strings.TrimSpace(name)
		if !ok || name == "" {
			return nil, fmt.Errorf("chaos: spec %q needs device:key=value[,...]", devSpec)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("chaos: device %q specified twice", name)
		}
		cfg := Config{Seed: seed}
		for _, kv := range strings.Split(plan, ",") {
			kv = strings.TrimSpace(kv)
			if kv == "" {
				continue
			}
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("chaos: %s: %q is not key=value", name, kv)
			}
			key = strings.TrimSpace(key)
			x, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
			if err != nil || x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("chaos: %s: bad value %q for %s", name, val, key)
			}
			prob, count, mult := x <= 1, x == math.Trunc(x) && x < 1<<31, x >= 1
			var inRange bool
			switch key {
			case "transient":
				cfg.TransientRate, inRange = x, prob
			case "failfirst":
				cfg.FailFirstOps, inRange = int(x), count
			case "die":
				cfg.DieAfterOps, inRange = int(x), count
			case "latmul":
				cfg.LatencyMultiplier, inRange = x, mult
			case "spike":
				cfg.SpikeRate, inRange = x, prob
			case "spikemul":
				cfg.SpikeMultiplier, inRange = x, mult
			case "corrupt":
				cfg.CorruptRate, inRange = x, prob
			case "corruptmag":
				cfg.CorruptMagnitude, inRange = x, true
			default:
				return nil, fmt.Errorf("chaos: %s: unknown key %q", name, key)
			}
			if !inRange {
				return nil, fmt.Errorf("chaos: %s: value %q out of range for %s", name, val, key)
			}
		}
		if !cfg.enabled() {
			return nil, fmt.Errorf("chaos: %s: plan injects nothing", name)
		}
		out[name] = cfg
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("chaos: empty spec")
	}
	return out, nil
}
