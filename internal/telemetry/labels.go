package telemetry

import "strings"

// WithLabel composes an exposed metric name with one more label, and is
// the only way a labeled metric name is built:
//
//	WithLabel("xpv_answers_total", "tenant", "acme")
//	  = `xpv_answers_total{tenant="acme"}`
//	WithLabel(`xpv_rung_total{rung="HV"}`, "tenant", "acme")
//	  = `xpv_rung_total{rung="HV",tenant="acme"}`
//
// Labels are appended in composition order; compose in a fixed order
// for a deterministic exposition. The value is escaped as the
// Prometheus text format requires — backslash, double quote and
// newline become \\, \" and \n — so every exposition row stays one
// line and one label value has one spelling. Printable ASCII spells
// exactly as %q would.
//
// Label values must come from a small closed set (configured tenants,
// the strategy and shed-reason enums): the registry never evicts, so
// an unbounded value stream would grow it without bound.
func WithLabel(name, key, value string) string {
	var b strings.Builder
	b.Grow(len(name) + len(key) + len(value) + 8)
	if strings.HasSuffix(name, "}") {
		b.WriteString(name[:len(name)-1])
		b.WriteByte(',')
	} else {
		b.WriteString(name)
		b.WriteByte('{')
	}
	b.WriteString(key)
	b.WriteString(`="`)
	for i := 0; i < len(value); i++ {
		switch c := value[i]; c {
		case '"', '\\':
			b.WriteByte('\\')
			b.WriteByte(c)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteString(`"}`)
	return b.String()
}
