package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

// TestPrefetchMetricsExposition: the resident-cache gauge registers on the
// Default registry and renders in both exposition formats, its series line
// matched by value and its metadata pinned by golden file.
func TestPrefetchMetricsExposition(t *testing.T) {
	withTelemetry(t)
	PrefetchBufferBytes.Set(4096)

	render := func(openMetrics bool) string {
		var buf bytes.Buffer
		var err error
		if openMetrics {
			err = Default.WriteOpenMetrics(&buf)
		} else {
			err = Default.WriteExposition(&buf)
		}
		if err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	classic, open := render(false), render(true)

	for _, format := range []struct{ name, out string }{
		{"classic", classic},
		{"openmetrics", open},
	} {
		if series := "shmt_prefetch_buffer_bytes 4096"; !strings.Contains(format.out, "\n"+series) {
			t.Fatalf("%s exposition missing series %q in:\n%s", format.name, series, format.out)
		}
	}

	var golden strings.Builder
	golden.WriteString("# format: classic\n")
	golden.WriteString(prefetchMetaLines(classic))
	golden.WriteString("# format: openmetrics\n")
	golden.WriteString(prefetchMetaLines(open))
	checkGolden(t, "prefetch_metrics.golden.txt", []byte(golden.String()))
}

// prefetchMetaLines extracts the HELP/TYPE lines of the prefetch family.
func prefetchMetaLines(out string) string {
	var sb strings.Builder
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "#") && strings.Contains(line, "shmt_prefetch") {
			sb.WriteString(line)
			sb.WriteString("\n")
		}
	}
	return sb.String()
}
