package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// Prometheus text exposition, served on each daemon's /metrics. Two formats
// are rendered straight off the registry's atomics — no intermediate
// collection pass — so a scrape never blocks the runtime:
//
//   - Classic text format (version 0.0.4): the default, and what plain
//     Prometheus expects. Never carries exemplars — in 0.0.4 a '#' is only a
//     comment at line start, so a trailing exemplar annotation is a parse
//     error that fails the whole scrape.
//   - OpenMetrics (application/openmetrics-text): served when the client
//     negotiates it via Accept; carries histogram bucket exemplars and the
//     mandatory '# EOF' terminator.

// ContentType values for the two exposition formats.
const (
	ContentTypeClassic     = "text/plain; version=0.0.4; charset=utf-8"
	ContentTypeOpenMetrics = "application/openmetrics-text; version=1.0.0; charset=utf-8"
)

// WriteExposition renders every family in the registry in classic Prometheus
// text format (version 0.0.4), families and children in sorted order.
// Exemplars are never emitted here; they are OpenMetrics-only (see
// WriteOpenMetrics).
func (r *Registry) WriteExposition(w io.Writer) error {
	return r.write(w, false)
}

// WriteOpenMetrics renders the registry in OpenMetrics text format:
// histogram buckets carry their exemplars and the output ends with the
// mandatory '# EOF' terminator. Counter metadata drops the '_total' suffix
// per the OpenMetrics naming rules (samples keep it).
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	if err := r.write(w, true); err != nil {
		return err
	}
	_, err := io.WriteString(w, "# EOF\n")
	return err
}

func (r *Registry) write(w io.Writer, openMetrics bool) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	for _, f := range fams {
		metaName := f.name
		if openMetrics && f.kind == kindCounter {
			// OpenMetrics counter families are named without the '_total'
			// suffix; the sample lines keep it.
			metaName = strings.TrimSuffix(f.name, "_total")
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", metaName, f.help, metaName, f.kind); err != nil {
			return err
		}
		f.mu.Lock()
		children := append([]*child(nil), f.children...)
		f.mu.Unlock()
		for _, c := range children {
			if err := writeChild(w, f, c, openMetrics); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeChild(w io.Writer, f *family, c *child, openMetrics bool) error {
	switch f.kind {
	case kindCounter:
		_, err := fmt.Fprintf(w, "%s %s\n", c.key, formatValue(float64(c.counter.Value())))
		return err
	case kindGauge:
		_, err := fmt.Fprintf(w, "%s %s\n", c.key, formatValue(float64(c.gauge.Value())))
		return err
	case kindHistogram:
		h := c.hist
		cum := int64(0)
		for i, b := range h.bounds {
			cum += h.buckets[i].Load()
			if err := writeBucket(w, f, c, formatValue(b), cum, h.exemplar(i), openMetrics); err != nil {
				return err
			}
		}
		cum += h.buckets[len(h.bounds)].Load()
		if err := writeBucket(w, f, c, "+Inf", cum, h.exemplar(len(h.bounds)), openMetrics); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", c.keySum, formatValue(h.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s %d\n", c.keyCount, h.Count())
		return err
	}
	return nil
}

func writeBucket(w io.Writer, f *family, c *child, le string, cum int64, ex *Exemplar, openMetrics bool) error {
	// Exemplar annotations are valid OpenMetrics only; the classic 0.0.4
	// format has no exemplar syntax and real Prometheus rejects the line.
	suffix := ""
	if openMetrics && ex != nil {
		suffix = fmt.Sprintf(" # {trace_id=%q} %s", ex.TraceID, formatValue(ex.Value))
	}
	if f.labelKey == "" {
		_, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d%s\n", f.name, le, cum, suffix)
		return err
	}
	_, err := fmt.Fprintf(w, "%s_bucket{%s=%q,le=%q} %d%s\n", f.name, f.labelKey, c.labelValue, le, cum, suffix)
	return err
}

// ExpositionHandler returns an http.HandlerFunc that serves the registry
// with content negotiation: clients whose Accept header names
// application/openmetrics-text get the OpenMetrics rendering (exemplars,
// '# EOF'); everyone else gets the classic 0.0.4 text format, which stays
// free of exemplar annotations so plain Prometheus scrapes never break.
func ExpositionHandler(reg *Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if acceptsOpenMetrics(r.Header.Get("Accept")) {
			w.Header().Set("Content-Type", ContentTypeOpenMetrics)
			_ = reg.WriteOpenMetrics(w)
			return
		}
		w.Header().Set("Content-Type", ContentTypeClassic)
		_ = reg.WriteExposition(w)
	}
}

// acceptsOpenMetrics reports whether an Accept header value negotiates the
// OpenMetrics exposition. A plain substring scan over the media ranges is
// enough here: a client that lists application/openmetrics-text at all is a
// Prometheus-lineage scraper that can parse it.
func acceptsOpenMetrics(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		mt := strings.TrimSpace(part)
		if i := strings.IndexByte(mt, ';'); i >= 0 {
			mt = strings.TrimSpace(mt[:i])
		}
		if mt == "application/openmetrics-text" {
			return true
		}
	}
	return false
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
