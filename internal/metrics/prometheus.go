package metrics

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// Prometheus text exposition format, version 0.0.4 — hand-rolled because the
// repo is stdlib-only. The subset rendered here: # HELP with escaping, # TYPE
// per family, scalar samples, and cumulative histogram _bucket/_sum/_count
// series ending in the mandatory le="+Inf" bucket. Non-finite values render
// as NaN / +Inf / -Inf, which the format permits.

// escapeHelp escapes backslash and newline per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return s
}

// formatValue renders a float64 sample value. strconv with 'g' produces
// "NaN", "+Inf" and "-Inf" for the non-finite cases, exactly as the format
// expects.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func writePrometheus(w io.Writer, snapshot []metricSnapshot) error {
	bw := bufio.NewWriter(w)
	for _, m := range snapshot {
		if m.Help != "" {
			bw.WriteString("# HELP ")
			bw.WriteString(m.Name)
			bw.WriteByte(' ')
			bw.WriteString(escapeHelp(m.Help))
			bw.WriteByte('\n')
		}
		bw.WriteString("# TYPE ")
		bw.WriteString(m.Name)
		bw.WriteByte(' ')
		bw.WriteString(m.Kind.String())
		bw.WriteByte('\n')

		if m.Hist == nil {
			bw.WriteString(m.Name)
			bw.WriteByte(' ')
			bw.WriteString(formatValue(m.Value))
			bw.WriteByte('\n')
			continue
		}

		// Histogram: cumulative buckets, then the +Inf bucket, _sum, _count.
		var cum uint64
		for i, c := range m.Hist.Buckets {
			cum += c
			bw.WriteString(m.Name)
			bw.WriteString(`_bucket{le="`)
			bw.WriteString(formatValue(m.Hist.upperEdge(i)))
			bw.WriteString(`"} `)
			bw.WriteString(strconv.FormatUint(cum, 10))
			bw.WriteByte('\n')
		}
		bw.WriteString(m.Name)
		bw.WriteString(`_bucket{le="+Inf"} `)
		bw.WriteString(strconv.FormatUint(m.Hist.Count, 10))
		bw.WriteByte('\n')
		bw.WriteString(m.Name)
		bw.WriteString("_sum ")
		bw.WriteString(formatValue(m.Hist.Sum))
		bw.WriteByte('\n')
		bw.WriteString(m.Name)
		bw.WriteString("_count ")
		bw.WriteString(strconv.FormatUint(m.Hist.Count, 10))
		bw.WriteByte('\n')
	}
	return bw.Flush()
}
