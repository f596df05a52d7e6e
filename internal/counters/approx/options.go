package approx

// defaultSeed seeds the css sampling streams when the caller does not
// choose one: a fixed constant, so two identical runs are byte-identical —
// the determinism the accuracy study's double-run CI check pins.
const defaultSeed = 0x6a09e667f3bcc909

// Option configures an approximate counter.
type Option func(*config)

type config struct {
	eps    float64
	warmup int
	seed   uint64
}

func newConfig(defaultEps float64, opts []Option) config {
	cfg := config{eps: defaultEps, seed: defaultSeed}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// WithEpsilon sets the claimed relative error bound ε (> 0). Values
// outside (0, 1] keep the protocol's default.
func WithEpsilon(eps float64) Option {
	return func(c *config) {
		if eps > 0 && eps <= 1 {
			c.eps = eps
		}
	}
}

// WithWarmup overrides the exact-phase length (the count below which
// operations take the synchronous coordinator round trip). The default
// ⌈4n/ε⌉ is the smallest count at which ε·C/4 covers one in-flight
// increment per site; tests shrink it to reach the local phase quickly.
func WithWarmup(count int) Option {
	return func(c *config) { c.warmup = count }
}

// WithSeed seeds the css sampling streams (ignored by gxu-threshold).
func WithSeed(seed uint64) Option {
	return func(c *config) { c.seed = seed }
}
