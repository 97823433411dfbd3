package obs

import (
	"expvar"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// summaryQuantiles are the quantile samples a histogram family exports.
var summaryQuantiles = []float64{0.5, 0.9, 0.99, 0.999}

// metricKind is the Prometheus family type of a registered metric.
type metricKind int

const (
	counterKind metricKind = iota
	histogramKind
	funcKind // pull-computed gauge
)

func (k metricKind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case histogramKind:
		return "summary"
	default:
		return "gauge"
	}
}

// sample is one registered metric instance: a family member with an
// optional label set.
type sample struct {
	name    string // full sample name, e.g. shard_op_nanos{op="get"}
	labels  string // label body without braces, "" when unlabeled
	counter *Counter
	hist    *Histogram
	fn      func() float64
}

// family groups the samples sharing a metric name, so HELP/TYPE render
// once and samples stay contiguous as the exposition format requires.
type family struct {
	name    string
	help    string
	kind    metricKind
	samples []*sample
}

// Registry names metrics and renders them on demand. Registration takes
// the registry lock; rendering walks the registered primitives and reads
// their atomics — it never blocks a recorder, and the registry owns no
// goroutines (export is pull-based by design: scrapes and expvar reads
// happen on the caller's goroutine).
//
// Metric names follow the Prometheus data model: a family name, with an
// optional fixed label set baked into the registered name — e.g.
// RegisterHistogram(`engine_op_nanos{op="get"}`, ...) registers one
// member of the engine_op_nanos family. Registering the same full name
// twice, or one family under two kinds, panics: both are programmer
// errors a test hits immediately.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
	seen     map[string]bool
}

// NewRegistry returns an empty Registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}, seen: map[string]bool{}}
}

// splitName separates a sample name into family and label body.
func splitName(name string) (fam, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	if !strings.HasSuffix(name, "}") {
		panic(fmt.Sprintf("obs: malformed metric name %q: '{' without closing '}'", name))
	}
	return name[:i], name[i+1 : len(name)-1]
}

// register validates and files s under its family.
func (r *Registry) register(name, help string, kind metricKind, s *sample) {
	fam, labels := splitName(name)
	if fam == "" {
		panic(fmt.Sprintf("obs: empty metric family in name %q", name))
	}
	s.name, s.labels = name, labels
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seen[name] {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	r.seen[name] = true
	f := r.byName[fam]
	if f == nil {
		f = &family{name: fam, help: help, kind: kind}
		r.byName[fam] = f
		r.families = append(r.families, f)
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric family %q registered as both %v and %v", fam, f.kind, kind))
	}
	f.samples = append(f.samples, s)
}

// RegisterCounter registers a Counter under name (rendered with the
// conventional _total reading left to the caller's naming).
func (r *Registry) RegisterCounter(name, help string, c *Counter) {
	r.register(name, help, counterKind, &sample{counter: c})
}

// RegisterHistogram registers a Histogram under name, exported as a
// Prometheus summary: quantile samples (p50/p90/p99/p999 estimates from
// the log-bucketed snapshot) plus name_sum and name_count.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram) {
	r.register(name, help, histogramKind, &sample{hist: h})
}

// RegisterFunc registers a pull-computed gauge: fn runs on every render,
// on the scraper's goroutine. Use it to export existing snapshot state
// (engine Len, load factor, migration counters) without a push path.
func (r *Registry) RegisterFunc(name, help string, fn func() float64) {
	r.register(name, help, funcKind, &sample{fn: fn})
}

// withLabel merges extra into a sample's label set.
func withLabel(labels, extra string) string {
	if labels == "" {
		return extra
	}
	return labels + "," + extra
}

// sampleLine writes one exposition line: name{labels} value.
func sampleLine(w io.Writer, fam, labels, value string) {
	if labels == "" {
		fmt.Fprintf(w, "%s %s\n", fam, value)
	} else {
		fmt.Fprintf(w, "%s{%s} %s\n", fam, labels, value)
	}
}

// formatFloat renders a float in the shortest round-trip form.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteText renders every registered metric in the Prometheus text
// exposition format (version 0.0.4), families in registration order.
func (r *Registry) WriteText(w io.Writer) {
	r.mu.Lock()
	families := make([]*family, len(r.families))
	copy(families, r.families)
	r.mu.Unlock()
	for _, f := range families {
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(w, "# TYPE %s %v\n", f.name, f.kind)
		for _, s := range f.samples {
			switch f.kind {
			case counterKind:
				sampleLine(w, f.name, s.labels, strconv.FormatUint(s.counter.Value(), 10))
			case funcKind:
				sampleLine(w, f.name, s.labels, formatFloat(s.fn()))
			case histogramKind:
				snap := s.hist.Snapshot()
				for _, q := range summaryQuantiles {
					ql := withLabel(s.labels, `quantile="`+formatFloat(q)+`"`)
					sampleLine(w, f.name, ql, strconv.FormatInt(snap.Quantile(q), 10))
				}
				sampleLine(w, f.name+"_sum", s.labels, strconv.FormatUint(snap.Sum, 10))
				sampleLine(w, f.name+"_count", s.labels, strconv.Itoa(snap.Count))
			}
		}
	}
}

// ServeHTTP renders the registry: the /metrics endpoint. Plain GETs
// only; the render runs on the scraper's goroutine.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	r.WriteText(w)
}

// expvarMap is the expvar payload: every sample's current value keyed by
// its full name, histograms as their quantile summaries. Keys are sorted
// so the JSON is stable for humans and tests.
func (r *Registry) expvarMap() any {
	r.mu.Lock()
	families := make([]*family, len(r.families))
	copy(families, r.families)
	r.mu.Unlock()
	out := map[string]any{}
	for _, f := range families {
		for _, s := range f.samples {
			switch f.kind {
			case counterKind:
				out[s.name] = s.counter.Value()
			case funcKind:
				out[s.name] = s.fn()
			case histogramKind:
				snap := s.hist.Snapshot()
				h := map[string]any{"count": snap.Count, "sum": snap.Sum}
				for _, q := range summaryQuantiles {
					h["p"+strings.TrimPrefix(formatFloat(q), "0.")] = snap.Quantile(q)
				}
				out[s.name] = h
			}
		}
	}
	return out
}

// PublishExpvar publishes the registry's snapshot as one expvar variable
// (visible on /debug/vars alongside the runtime's memstats), evaluated
// on each read. Publishing the same name twice in a process is a no-op
// for the second caller — expvar forbids re-publishing, and the first
// registry keeps the name.
func (r *Registry) PublishExpvar(name string) {
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.expvarMap() }))
}
