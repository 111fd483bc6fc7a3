package obs

import (
	"bufio"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// Exposition serialization: the Prometheus text format, version 0.0.4
// (https://prometheus.io/docs/instrumenting/exposition_formats/). Families
// are written in sorted name order and children in sorted label order, so
// the output is deterministic for a fixed metric state — the scrape tests
// and the CI e2e grep rely on that.

// ContentType is the Content-Type of the text exposition format.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Expose runs the scrape hooks and writes the registry's current state in
// the Prometheus text format.
func (r *Registry) Expose(w io.Writer) error {
	r.runHooks()
	bw := bufio.NewWriter(w)
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.families[name]
	}
	r.mu.RUnlock()
	for _, f := range fams {
		if err := f.expose(bw); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Handler returns an http.Handler serving the exposition (a GET /metrics
// endpoint).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		// Errors past the header are client disconnects; nothing to do.
		_ = r.Expose(w)
	})
}

// expose writes one family: HELP and TYPE headers (always, so required
// families are greppable even before their first sample) and every child.
func (f *family) expose(w *bufio.Writer) error {
	w.WriteString("# HELP ")
	w.WriteString(f.name)
	w.WriteByte(' ')
	w.WriteString(escapeHelp(f.help))
	w.WriteString("\n# TYPE ")
	w.WriteString(f.name)
	w.WriteByte(' ')
	w.WriteString(string(f.typ))
	w.WriteByte('\n')
	for _, key := range f.sortedKeys() {
		f.mu.RLock()
		c := f.children[key]
		f.mu.RUnlock()
		if c == nil { // removed between sortedKeys and here
			continue
		}
		switch f.typ {
		case typeCounter:
			writeSample(w, f.name, "", f.labels, c.labelValues, "", "",
				strconv.FormatInt(counterValue(c), 10))
		case typeGauge:
			writeSample(w, f.name, "", f.labels, c.labelValues, "", "",
				formatFloat(gaugeValue(c)))
		case typeHistogram:
			var cum int64
			for i, bound := range f.bounds {
				cum += c.buckets[i].Load()
				writeSample(w, f.name, "_bucket", f.labels, c.labelValues,
					"le", formatFloat(bound), strconv.FormatInt(cum, 10))
			}
			cum += c.buckets[len(f.bounds)].Load()
			writeSample(w, f.name, "_bucket", f.labels, c.labelValues,
				"le", "+Inf", strconv.FormatInt(cum, 10))
			writeSample(w, f.name, "_sum", f.labels, c.labelValues, "", "",
				formatFloat(histSum(c)))
			writeSample(w, f.name, "_count", f.labels, c.labelValues, "", "",
				strconv.FormatInt(cum, 10))
		}
	}
	return nil
}

func histSum(c *child) float64 { return (&Histogram{c: c}).Sum() }

// counterValue and gaugeValue read a child's sample: its read function
// when it is func-backed, its stored value otherwise.
func counterValue(c *child) int64 {
	if c.counterFn != nil {
		return c.counterFn()
	}
	return c.val.Load()
}

func gaugeValue(c *child) float64 {
	if c.gaugeFn != nil {
		return c.gaugeFn()
	}
	return (&Gauge{c}).Value()
}

// writeSample writes one sample line: name[suffix]{labels...} value.
func writeSample(w *bufio.Writer, name, suffix string, labels, values []string, extraLabel, extraValue, sample string) {
	w.WriteString(name)
	w.WriteString(suffix)
	if len(labels) > 0 || extraLabel != "" {
		w.WriteByte('{')
		first := true
		for i, l := range labels {
			if !first {
				w.WriteByte(',')
			}
			first = false
			w.WriteString(l)
			w.WriteString(`="`)
			w.WriteString(escapeLabel(values[i]))
			w.WriteByte('"')
		}
		if extraLabel != "" {
			if !first {
				w.WriteByte(',')
			}
			w.WriteString(extraLabel)
			w.WriteString(`="`)
			w.WriteString(escapeLabel(extraValue))
			w.WriteByte('"')
		}
		w.WriteByte('}')
	}
	w.WriteByte(' ')
	w.WriteString(sample)
	w.WriteByte('\n')
}

// formatFloat renders a float the way Prometheus clients do: shortest
// round-trip representation, integers without an exponent where possible.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }
func escapeHelp(s string) string  { return helpEscaper.Replace(s) }
