package workload

// KeySource is the random source behind a generator's key stream:
// SplitMix64 (Steele, Lea & Flood, OOPSLA 2014), eight bytes of state where
// math/rand's lagged-Fibonacci source carries a 607-word table. A fleet
// builds one stream per tenant, and a key picks a record, never an instant
// (DESIGN.md §6), so the stream needs to be seeded, repeatable and
// well mixed, and nothing else.
type KeySource struct{ state uint64 }

// NewKeySource returns the stream for seed.
func NewKeySource(seed int64) *KeySource {
	s := new(KeySource)
	s.Seed(seed)
	return s
}

// Seed restarts the stream. The state starts at the mix of the seed, not
// at the seed: a cluster seeds tenant i with Seed + i*7919, and two states
// that stay a small constant apart at every step would lean on the output
// mix alone to look unrelated.
func (s *KeySource) Seed(seed int64) {
	s.state = uint64(seed)
	s.state = s.Uint64()
}

// Uint64 implements rand.Source64.
func (s *KeySource) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// Int63 implements rand.Source.
func (s *KeySource) Int63() int64 { return int64(s.Uint64() >> 1) }
