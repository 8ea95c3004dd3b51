package telemetry

import (
	"fmt"
	"sort"
	"strings"
)

// HLOPSpans returns the spans of executed HLOPs: the virtual-clock device
// lanes, one span per admitted HLOP, without the " xfer" transfer sub-lanes
// and without failed-dispatch (Fault) intervals.
func HLOPSpans(spans []Span) []Span {
	var out []Span
	for _, s := range spans {
		if s.Clock == ClockVirtual && !s.Fault && !strings.HasSuffix(s.Track, " xfer") {
			out = append(out, s)
		}
	}
	return out
}

// Gantt renders the HLOP spans among spans as a fixed-width ASCII timeline,
// one row per device, so a run's overlap structure — who worked when, where
// stealing rebalanced, how long a device idled at the tail — is visible at a
// glance:
//
//	gpu  |██████████████████████████░░░|  22 hlops
//	tpu  |████████████████████████████▒|  42 hlops (6 stolen)
//
// '█' marks executed HLOPs, '▒' stolen ones (StealFrom set), '░' idle time.
// width is the number of timeline columns (default 60 when ≤ 0).
func Gantt(spans []Span, width int) string {
	if width <= 0 {
		width = 60
	}
	hlops := HLOPSpans(spans)
	if len(hlops) == 0 {
		return "(no HLOP spans)\n"
	}

	var tEnd float64
	devices := map[string][]Span{}
	for _, s := range hlops {
		devices[s.Track] = append(devices[s.Track], s)
		tEnd = max(tEnd, s.End)
	}
	if tEnd <= 0 {
		tEnd = 1
	}
	names := make([]string, 0, len(devices))
	nameW := 0
	for n := range devices {
		names = append(names, n)
		nameW = max(nameW, len(n))
	}
	sort.Strings(names)

	var b strings.Builder
	for _, n := range names {
		cells := []rune(strings.Repeat("░", width))
		var stolen int
		for _, s := range devices[n] {
			steal := s.StealFrom != ""
			if steal {
				stolen++
			}
			lo := int(s.Start / tEnd * float64(width))
			hi := min(int(s.End/tEnd*float64(width)), width-1)
			for i := lo; i <= hi; i++ {
				if steal {
					cells[i] = '▒'
				} else if cells[i] != '▒' {
					cells[i] = '█'
				}
			}
		}
		fmt.Fprintf(&b, "%-*s |%s|  %d hlops", nameW, n, string(cells), len(devices[n]))
		if stolen > 0 {
			fmt.Fprintf(&b, " (%d stolen)", stolen)
		}
		b.WriteByte('\n')
	}
	axis := fmt.Sprintf("%.3gs", tEnd)
	fmt.Fprintf(&b, "%-*s  0%s%s\n", nameW, "", strings.Repeat(" ", max(width-len(axis), 0)), axis)
	return b.String()
}
