package obs

import "learnedftl/internal/nand"

// Sample is one (virtual time, value) point of a metric series.
type Sample struct {
	T nand.Time `json:"t"`
	V int64     `json:"v"`
}

// MetricSeries is the exported form of one sampled metric.
type MetricSeries struct {
	Name    string   `json:"name"`
	Samples []Sample `json:"samples"`
}

type metric struct {
	name    string
	read    func() int64
	samples []Sample
}

// Registry samples named counters/gauges on a virtual-time ticker into
// bounded windowed series. Any int64-valued source (write amplification,
// GC count, ...) registers a closure; the tracer ticks the
// registry as virtual time advances (request and flash-op completions), and
// each metric is sampled once per interval. When a series hits its cap it
// is decimated (every other sample dropped) and the interval doubles, so
// memory stays O(cap) on unbounded runs.
type Registry struct {
	interval nand.Time
	next     nand.Time
	cap      int
	metrics  []metric
}

// Default registry parameters: 10 ms of virtual time per sample, at most
// 512 samples per series before decimation.
const (
	DefaultSampleInterval = 10 * nand.Millisecond
	DefaultSeriesCap      = 512
)

// NewRegistry returns a registry sampling every interval of virtual time,
// keeping at most capSamples points per series.
func NewRegistry(interval nand.Time, capSamples int) *Registry {
	if interval <= 0 {
		interval = DefaultSampleInterval
	}
	if capSamples < 2 {
		capSamples = DefaultSeriesCap
	}
	return &Registry{interval: interval, next: interval, cap: capSamples}
}

// Register adds a metric read by calling read() at each sample point. The
// closure must be cheap and side-effect free.
func (r *Registry) Register(name string, read func() int64) {
	r.metrics = append(r.metrics, metric{name: name, read: read})
}

// Tick advances the sampler to virtual time now, taking any sample points
// crossed since the last tick. Non-monotonic ticks are ignored. When the
// series reach their cap they are decimated and the interval doubles, so a
// run of any virtual length takes O(cap log(length)) samples total and each
// Tick is amortized O(1).
func (r *Registry) Tick(now nand.Time) {
	if len(r.metrics) == 0 {
		if now >= r.next {
			r.next = now + r.interval
		}
		return
	}
	for now >= r.next {
		t := r.next
		full := false
		for i := range r.metrics {
			m := &r.metrics[i]
			m.samples = append(m.samples, Sample{T: t, V: m.read()})
			if len(m.samples) >= r.cap {
				full = true
			}
		}
		if full {
			// Decimate every series (they are all the same length) and
			// double the interval to match the halved resolution.
			for i := range r.metrics {
				m := &r.metrics[i]
				half := m.samples[:0]
				for j := 0; j < len(m.samples); j += 2 {
					half = append(half, m.samples[j])
				}
				m.samples = half
			}
			r.interval *= 2
		}
		r.next = t + r.interval
	}
}

// Series returns the sampled series for export.
func (r *Registry) Series() []MetricSeries {
	out := make([]MetricSeries, 0, len(r.metrics))
	for i := range r.metrics {
		m := &r.metrics[i]
		out = append(out, MetricSeries{Name: m.name, Samples: m.samples})
	}
	return out
}
