package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/haechi-qos/haechi/internal/sim"
)

func TestZipfianValidation(t *testing.T) {
	if _, err := NewZipfian(0, 0.5); err == nil {
		t.Error("zero range accepted")
	}
	for _, theta := range []float64{0, 1, -0.5, 1.5} {
		if _, err := NewZipfian(10, theta); err == nil {
			t.Errorf("theta=%v accepted", theta)
		}
	}
}

func TestZipfianRangeAndSkew(t *testing.T) {
	const n = 1000
	z, err := NewZipfian(n, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, n)
	const draws = 200000
	for i := 0; i < draws; i++ {
		v := z.Next(rng)
		if v >= n {
			t.Fatalf("draw %d out of range", v)
		}
		counts[v]++
	}
	// Rank 0 must dominate: with theta=0.99 over 1000 items, item 0 gets
	// ~13% of mass.
	if float64(counts[0])/draws < 0.08 {
		t.Errorf("rank-0 frequency %.3f too low for zipfian", float64(counts[0])/draws)
	}
	// Monotone-ish decay: first rank beats the 100th by a wide margin.
	if counts[0] < counts[99]*10 {
		t.Errorf("insufficient skew: counts[0]=%d counts[99]=%d", counts[0], counts[99])
	}
}

// referenceZipfianNext is Zipfian.Next as it stood before the rank-1
// threshold was hoisted into NewZipfian and before integer skews stopped
// calling math.Pow per draw, kept verbatim (theta passed in, since the
// chooser no longer stores it): the pin for "same expression, same
// float64" and for "same rank from either power".
func referenceZipfianNext(z *Zipfian, theta float64, rng *rand.Rand) uint64 {
	u := rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, theta) {
		return 1
	}
	v := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v >= z.n {
		v = z.n - 1
	}
	return v
}

// fixedDraw is a rand.Source whose every Float64 is u = bits / 2^53 (Float64
// is Int63 / 2^63), so a test can hand Next the exact uniform draw it wants
// to probe.
type fixedDraw struct{ bits int64 }

func (f *fixedDraw) Int63() int64 { return f.bits << 10 }
func (f *fixedDraw) Seed(int64)   {}

func TestZipfianNextMatchesReference(t *testing.T) {
	draws := 10_000_000
	if testing.Short() {
		draws = 1_000_000
	}
	// 1/(1-theta) is 100 and 2 to within the tolerance, so those skews
	// multiply; 0.7 (alpha 3.33) has only math.Pow.
	for _, skew := range []struct {
		theta float64
		ipow  uint
	}{{zipfTheta, 100}, {0.5, 2}, {0.7, 0}} {
		theta, ipow := skew.theta, skew.ipow
		for _, n := range []uint64{1, 2, 3, 1 << 10, 1 << 12, 1 << 16, 1 << 20} {
			z, err := NewZipfian(n, theta)
			if err != nil {
				t.Fatal(err)
			}
			if n > 3 && z.ipow != ipow { // n = 2 has eta = 0/0 and never multiplies
				t.Fatalf("theta=%v n=%d: ipow = %d, want %d", theta, n, z.ipow, ipow)
			}
			per := draws / 4
			if theta != zipfTheta || n < 1<<10 {
				per = 10_000
			}
			for _, seed := range []int64{1, 42} {
				got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				for i := 0; i < per/2; i++ {
					g, w := z.Next(got), referenceZipfianNext(z, theta, want)
					if g != w {
						t.Fatalf("theta=%v n=%d seed=%d draw %d: Next = %d, reference = %d", theta, n, seed, i, g, w)
					}
				}
			}
		}
	}
}

// Where the two powers could disagree is a draw whose n*base^alpha lands
// on an integer: walk every rank boundary of the 2^16-key chooser the
// benchmarks use, sixteen representable draws to either side of it.
func TestZipfianNextRankBoundaries(t *testing.T) {
	const n = 1 << 16
	z, err := NewZipfian(n, zipfTheta)
	if err != nil {
		t.Fatal(err)
	}
	var src fixedDraw
	rng := rand.New(&src)
	guarded := 0
	for rank := 2; rank <= n; rank++ {
		// Invert the rank formula: n * (eta*u - eta + 1)^alpha = rank.
		u := (math.Pow(float64(rank)/n, 1/z.alpha) - 1 + z.eta) / z.eta
		center := int64(u * (1 << 53))
		for bits := center - 16; bits <= center+16; bits++ {
			if bits < 0 || bits >= 1<<53 {
				continue
			}
			src.bits = bits
			g, w := z.Next(rng), referenceZipfianNext(z, zipfTheta, rng)
			if g != w {
				t.Fatalf("rank %d, u = %d/2^53: Next = %d, reference = %d", rank, bits, g, w)
			}
			if int(w) == rank || int(w) == rank-1 {
				guarded++
			}
		}
	}
	// The sweep must really straddle the boundaries it claims to visit.
	if guarded < 30*(n-2) {
		t.Errorf("only %d of %d probes landed beside their boundary", guarded, 33*(n-1))
	}
}

func TestScrambledZipfianSpreads(t *testing.T) {
	const n = 1 << 12
	s, err := NewScrambledZipfian(n)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	seen := map[uint64]int{}
	var maxKey uint64
	for i := 0; i < 100000; i++ {
		k := s.Next(rng)
		if k >= n {
			t.Fatalf("key %d out of range", k)
		}
		seen[k]++
		if k > maxKey {
			maxKey = k
		}
	}
	// The hot key must not be key 0 (scrambling) and hot mass must exist.
	var hot uint64
	best := 0
	for k, c := range seen {
		if c > best {
			best, hot = c, k
		}
	}
	if hot == 0 {
		t.Error("hottest key is 0; scrambling ineffective")
	}
	if best < 100000/20 {
		t.Errorf("hottest key only %d draws; skew lost in scrambling", best)
	}
	if maxKey < n/2 {
		t.Error("keys not spread across keyspace")
	}
}

func TestLatestKeys(t *testing.T) {
	const n = 1000
	l, err := NewLatestKeys(n)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewLatestKeys(0); err == nil {
		t.Error("zero range accepted")
	}
	rng := rand.New(rand.NewSource(3))
	counts := make(map[uint64]int)
	for i := 0; i < 50000; i++ {
		k := l.Next(rng)
		if k >= n {
			t.Fatalf("key %d out of range", k)
		}
		counts[k]++
	}
	if counts[n-1] < counts[0]*5 {
		t.Errorf("latest key not hottest: counts[n-1]=%d counts[0]=%d", counts[n-1], counts[0])
	}
}

func TestSequentialKeys(t *testing.T) {
	s := &SequentialKeys{N: 3}
	want := []uint64{0, 1, 2, 0, 1}
	for i, w := range want {
		if got := s.Next(nil); got != w {
			t.Errorf("draw %d = %d, want %d", i, got, w)
		}
	}
}

func TestUniformKeys(t *testing.T) {
	u := &UniformKeys{N: 100}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 1000; i++ {
		if k := u.Next(rng); k >= 100 {
			t.Fatalf("uniform key %d out of range", k)
		}
	}
}

func TestNewChooser(t *testing.T) {
	for _, name := range []string{"uniform", "zipfian", "latest", "sequential"} {
		c, err := NewChooser(name, 100)
		if err != nil || c == nil {
			t.Errorf("NewChooser(%q) failed: %v", name, err)
		}
	}
	if _, err := NewChooser("bogus", 100); err == nil {
		t.Error("unknown chooser accepted")
	}
	if _, err := NewChooser("uniform", 0); err == nil {
		t.Error("zero keyspace accepted")
	}
}

func TestUniformSplit(t *testing.T) {
	parts := UniformSplit(1580_000, 10)
	if Sum(parts) != 1580_000 {
		t.Errorf("sum = %d", Sum(parts))
	}
	for _, p := range parts {
		if p != 158_000 {
			t.Errorf("part = %d, want 158000", p)
		}
	}
	// Remainder handling.
	parts = UniformSplit(10, 3)
	if Sum(parts) != 10 {
		t.Errorf("sum = %d, want 10", Sum(parts))
	}
	if parts[0] != 4 || parts[1] != 3 || parts[2] != 3 {
		t.Errorf("parts = %v", parts)
	}
	if len(UniformSplit(5, 0)) != 0 {
		t.Error("n=0 should give empty slice")
	}
}

func TestSpikeSplit(t *testing.T) {
	parts, err := SpikeSplit(10, 3, 340_000, 80_000)
	if err != nil {
		t.Fatal(err)
	}
	if Sum(parts) != 3*340_000+7*80_000 {
		t.Errorf("sum = %d", Sum(parts))
	}
	if parts[0] != 340_000 || parts[3] != 80_000 || parts[9] != 80_000 {
		t.Errorf("parts = %v", parts)
	}
	if _, err := SpikeSplit(10, 11, 1, 1); err == nil {
		t.Error("high > n accepted")
	}
	if _, err := SpikeSplit(10, -1, 1, 1); err == nil {
		t.Error("negative high accepted")
	}
}

func TestZipfGroupSplit(t *testing.T) {
	total := uint64(1_413_000) // 90% of 1570K
	parts, err := ZipfGroupSplit(total, 10, 5, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if Sum(parts) != total {
		t.Errorf("sum = %d, want %d", Sum(parts), total)
	}
	// Paired clients share reservations.
	for g := 0; g < 5; g++ {
		if parts[2*g] < parts[2*g+1] && parts[2*g]+1 < parts[2*g+1] {
			t.Errorf("group %d unequal: %d vs %d", g, parts[2*g], parts[2*g+1])
		}
	}
	// Group shares decay as 1/g^0.6.
	if parts[0] <= parts[2] || parts[2] <= parts[4] || parts[4] <= parts[6] || parts[6] <= parts[8] {
		t.Errorf("group shares not decreasing: %v", parts)
	}
	ratio := float64(parts[0]) / float64(parts[8])
	want := math.Pow(5, 0.6)
	if ratio < want*0.9 || ratio > want*1.1 {
		t.Errorf("C1/C9 ratio = %.2f, want ≈%.2f", ratio, want)
	}
	if _, err := ZipfGroupSplit(100, 10, 3, 0.6); err == nil {
		t.Error("non-divisible grouping accepted")
	}
	if _, err := ZipfGroupSplit(100, 0, 5, 0.6); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := ZipfGroupSplit(100, 10, 11, 0.6); err == nil {
		t.Error("groups>n accepted")
	}
}

// Property: ZipfGroupSplit always sums exactly to total.
func TestZipfGroupSplitSumProperty(t *testing.T) {
	f := func(total uint32, groupsRaw uint8) bool {
		groups := int(groupsRaw%5) + 1
		n := groups * 2
		parts, err := ZipfGroupSplit(uint64(total), n, groups, 0.6)
		if err != nil {
			return false
		}
		return Sum(parts) == uint64(total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// send posts one request; done must be called once when it completes.
type send func(key uint64, done func())

// instantSend completes every request after a fixed simulated delay.
func instantSend(k *sim.Kernel, delay sim.Time) send {
	return func(key uint64, done func()) {
		k.Schedule(delay, done)
	}
}

// newPulledGenerator builds a generator behind a gate-less sink: every
// arrival is pulled and posted the instant it is announced, and its done
// hands the arrival instant back.
func newPulledGenerator(k *sim.Kernel, seed int64, keys KeyChooser, pattern Pattern, periodLen sim.Time, post send) (*Generator, error) {
	var g *Generator
	g, err := NewGenerator(k, seed, keys, pattern, periodLen, func(n uint64) {
		for now := k.Now(); n > 0; n-- {
			post(g.Next(now), func() { g.Complete(now) })
		}
	})
	return g, err
}

func TestGeneratorValidation(t *testing.T) {
	k := sim.New(1)
	keys := &SequentialKeys{N: 10}
	sub := func(uint64) {}
	if _, err := NewGenerator(nil, 1, keys, Burst{64}, sim.Second, sub); err == nil {
		t.Error("nil kernel accepted")
	}
	if _, err := NewGenerator(k, 1, nil, Burst{64}, sim.Second, sub); err == nil {
		t.Error("nil keys accepted")
	}
	if _, err := NewGenerator(k, 1, keys, nil, sim.Second, sub); err == nil {
		t.Error("nil pattern accepted")
	}
	if _, err := NewGenerator(k, 1, keys, Burst{64}, 0, sub); err == nil {
		t.Error("zero period accepted")
	}
	if _, err := NewGenerator(k, 1, keys, Burst{64}, sim.Second, nil); err == nil {
		t.Error("nil arrive accepted")
	}
}

func TestBurstKeepsWindowOutstanding(t *testing.T) {
	k := sim.New(1)
	outstanding, maxOutstanding := 0, 0
	sub := func(key uint64, done func()) {
		outstanding++
		if outstanding > maxOutstanding {
			maxOutstanding = outstanding
		}
		k.Schedule(10*sim.Microsecond, func() {
			outstanding--
			done()
		})
	}
	g, err := newPulledGenerator(k, 1, &SequentialKeys{N: 100}, Burst{Window: 8}, sim.Second, sub)
	if err != nil {
		t.Fatal(err)
	}
	g.BeginPeriod(100)
	k.Run()
	if g.Completed() != 100 {
		t.Errorf("Completed = %d, want 100", g.Completed())
	}
	if maxOutstanding != 8 {
		t.Errorf("max outstanding = %d, want 8 (window)", maxOutstanding)
	}
}

func TestBurstDefaultWindow(t *testing.T) {
	k := sim.New(1)
	g, err := newPulledGenerator(k, 1, &SequentialKeys{N: 10}, Burst{}, sim.Second, instantSend(k, 1))
	if err != nil {
		t.Fatal(err)
	}
	g.BeginPeriod(10)
	k.Run()
	if g.Completed() != 10 {
		t.Errorf("Completed = %d", g.Completed())
	}
}

func TestBurstIdlesAfterDemand(t *testing.T) {
	k := sim.New(1)
	g, _ := newPulledGenerator(k, 1, &SequentialKeys{N: 100}, Burst{Window: 4}, sim.Second, instantSend(k, sim.Microsecond))
	g.BeginPeriod(20)
	k.Run()
	if g.Issued() != 20 {
		t.Errorf("Issued = %d, want exactly the demand", g.Issued())
	}
}

func TestConstantRateSpacing(t *testing.T) {
	k := sim.New(1)
	var submitTimes []sim.Time
	sub := func(key uint64, done func()) {
		submitTimes = append(submitTimes, k.Now())
		k.Schedule(1, done)
	}
	g, err := newPulledGenerator(k, 1, &SequentialKeys{N: 100}, ConstantRate{}, sim.Second, sub)
	if err != nil {
		t.Fatal(err)
	}
	g.BeginPeriod(10)
	k.RunUntil(sim.Second)
	if len(submitTimes) != 10 {
		t.Fatalf("issued %d, want 10", len(submitTimes))
	}
	want := sim.Second / 10
	for i := 1; i < len(submitTimes); i++ {
		gap := submitTimes[i] - submitTimes[i-1]
		if gap != want {
			t.Errorf("gap %d = %v, want %v", i, gap, want)
		}
	}
}

func TestConstantRateZeroDemand(t *testing.T) {
	k := sim.New(1)
	g, _ := newPulledGenerator(k, 1, &SequentialKeys{N: 100}, ConstantRate{}, sim.Second, instantSend(k, 1))
	g.BeginPeriod(0)
	k.RunUntil(sim.Second)
	if g.Issued() != 0 {
		t.Errorf("zero demand issued %d requests", g.Issued())
	}
}

func TestConstantRateNewPeriodResets(t *testing.T) {
	k := sim.New(1)
	g, _ := newPulledGenerator(k, 1, &SequentialKeys{N: 100}, ConstantRate{}, 10*sim.Millisecond, instantSend(k, 1))
	g.BeginPeriod(5)
	k.RunUntil(10 * sim.Millisecond)
	g.BeginPeriod(5)
	k.RunUntil(20 * sim.Millisecond)
	if g.Issued() != 10 {
		t.Errorf("Issued = %d across two periods, want 10", g.Issued())
	}
	if got := g.TakePeriodCompleted(); got != 10 {
		// Both periods' completions were not harvested in between.
		t.Errorf("TakePeriodCompleted = %d, want 10", got)
	}
	if got := g.TakePeriodCompleted(); got != 0 {
		t.Errorf("second TakePeriodCompleted = %d, want 0", got)
	}
}

func TestGeneratorLatencyRecorded(t *testing.T) {
	k := sim.New(1)
	g, _ := newPulledGenerator(k, 1, &SequentialKeys{N: 10}, Burst{Window: 1}, sim.Second, instantSend(k, 5*sim.Microsecond))
	g.BeginPeriod(4)
	k.Run()
	if g.Latency.Summarize().Count != 4 {
		t.Errorf("latency samples = %d, want 4", g.Latency.Summarize().Count)
	}
	if g.Latency.Mean() != 5*sim.Microsecond {
		t.Errorf("latency mean = %v, want 5µs", g.Latency.Mean())
	}
}

func TestGeneratorStop(t *testing.T) {
	k := sim.New(1)
	g, _ := newPulledGenerator(k, 1, &SequentialKeys{N: 100}, ConstantRate{}, sim.Second, instantSend(k, 1))
	g.BeginPeriod(1000)
	k.RunUntil(100 * sim.Millisecond)
	issued := g.Issued()
	g.Stop()
	k.RunUntil(sim.Second)
	if g.Issued() > issued+1 {
		t.Errorf("generator kept issuing after Stop: %d -> %d", issued, g.Issued())
	}
}

func TestPatternStrings(t *testing.T) {
	if (Burst{64}).String() != "burst(64)" {
		t.Error("Burst.String wrong")
	}
	if (ConstantRate{}).String() != "constant-rate" {
		t.Error("ConstantRate.String wrong")
	}
}

func TestPoissonRate(t *testing.T) {
	k := sim.New(8)
	g, err := newPulledGenerator(k, 3, &SequentialKeys{N: 100}, Poisson{}, sim.Second, instantSend(k, 1))
	if err != nil {
		t.Fatal(err)
	}
	g.BeginPeriod(10_000)
	k.RunUntil(sim.Second)
	issued := g.Issued()
	if issued < 9_000 || issued > 11_000 {
		t.Errorf("poisson issued %d in one period, want ≈10000", issued)
	}
}

func TestPoissonZeroDemandAndStop(t *testing.T) {
	k := sim.New(8)
	g, _ := newPulledGenerator(k, 3, &SequentialKeys{N: 10}, Poisson{}, sim.Second, instantSend(k, 1))
	g.BeginPeriod(0)
	k.RunUntil(sim.Second / 2)
	if g.Issued() != 0 {
		t.Errorf("zero-demand poisson issued %d", g.Issued())
	}
	g.BeginPeriod(100_000)
	k.RunUntil(sim.Second*3/4 - sim.Millisecond)
	g.Stop()
	at := g.Issued()
	k.RunUntil(sim.Second)
	if g.Issued() > at {
		t.Errorf("poisson kept issuing after Stop: %d -> %d", at, g.Issued())
	}
}

func TestPoissonNewPeriodRestarts(t *testing.T) {
	k := sim.New(8)
	g, _ := newPulledGenerator(k, 3, &SequentialKeys{N: 10}, Poisson{}, 100*sim.Millisecond, instantSend(k, 1))
	g.BeginPeriod(1000)
	k.RunUntil(100 * sim.Millisecond)
	first := g.Issued()
	g.BeginPeriod(1000)
	k.RunUntil(200 * sim.Millisecond)
	if g.Issued() <= first {
		t.Error("second period issued nothing")
	}
	if (Poisson{}).String() != "poisson" {
		t.Error("Poisson.String wrong")
	}
}

// TestPoissonInterArrivalProperty: the empirical CV of inter-arrival
// times is near 1 (exponential), distinguishing it from constant-rate.
func TestPoissonInterArrivalProperty(t *testing.T) {
	k := sim.New(8)
	var times []sim.Time
	sub := func(key uint64, done func()) {
		times = append(times, k.Now())
		k.Schedule(1, done)
	}
	g, _ := newPulledGenerator(k, 9, &SequentialKeys{N: 10}, Poisson{}, sim.Second, sub)
	g.BeginPeriod(20_000)
	k.RunUntil(sim.Second)
	if len(times) < 1000 {
		t.Fatalf("too few arrivals: %d", len(times))
	}
	var gaps []float64
	for i := 1; i < len(times); i++ {
		gaps = append(gaps, float64(times[i]-times[i-1]))
	}
	var mean, varsum float64
	for _, g := range gaps {
		mean += g
	}
	mean /= float64(len(gaps))
	for _, g := range gaps {
		varsum += (g - mean) * (g - mean)
	}
	cv := math.Sqrt(varsum/float64(len(gaps))) / mean
	if cv < 0.8 || cv > 1.2 {
		t.Errorf("inter-arrival CV = %.2f, want ≈1 (exponential)", cv)
	}
}

// TestDriversKeepPushContractArrivals pins the open-loop and windowed
// drivers, behind a sink that pulls on arrival, to the arrival instants
// they produced when every request was pushed as a (key, done) pair the
// moment it was wanted. The table is the first twelve requests of each
// pattern (seed 42, scrambled zipfian over 1000 keys, 24 requests per 1 ms
// period, 5 µs service): the instants of all three and the Poisson keys
// (drawn from math/rand between its gaps) recorded from that
// implementation, the constant-rate and burst keys from the KeySource
// stream of the same seed.
func TestDriversKeepPushContractArrivals(t *testing.T) {
	type arrival struct {
		at  sim.Time
		key uint64
	}
	cases := []struct {
		pattern Pattern
		issued  uint64
		want    []arrival
	}{
		{ConstantRate{}, 24, []arrival{
			{0, 587}, {41666, 862}, {83332, 126}, {124998, 405}, {166664, 147}, {208330, 405},
			{249996, 223}, {291662, 699}, {333328, 405}, {374994, 523}, {416660, 244}, {458326, 996},
		}},
		{Poisson{}, 22, []arrival{
			{20655, 405}, {27039, 223}, {31870, 61}, {67662, 61}, {125903, 633}, {271043, 223},
			{317020, 405}, {330753, 717}, {338841, 321}, {388805, 139}, {394593, 587}, {415916, 223},
		}},
		{Burst{Window: 8}, 24, []arrival{
			{0, 587}, {0, 862}, {0, 126}, {0, 405}, {0, 147}, {0, 405},
			{0, 223}, {0, 699}, {5000, 405}, {5000, 523}, {5000, 244}, {5000, 996},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.pattern.String(), func(t *testing.T) {
			k := sim.New(1)
			keys, err := NewScrambledZipfian(1000)
			if err != nil {
				t.Fatal(err)
			}
			var got []arrival
			g, err := newPulledGenerator(k, 42, keys, tc.pattern, sim.Millisecond, func(key uint64, done func()) {
				if len(got) < len(tc.want) {
					got = append(got, arrival{k.Now(), key})
				}
				k.Schedule(5*sim.Microsecond, done)
			})
			if err != nil {
				t.Fatal(err)
			}
			g.BeginPeriod(24)
			k.RunUntil(sim.Millisecond)
			g.Stop()
			if len(got) != len(tc.want) {
				t.Fatalf("%d arrivals, want at least %d", len(got), len(tc.want))
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Errorf("arrival %d = %+v, want %+v", i, got[i], tc.want[i])
				}
			}
			if g.Issued() != tc.issued || g.Completed() != tc.issued || g.Latency.Mean() != 5*sim.Microsecond {
				t.Errorf("issued/completed/mean latency = %d/%d/%v, want %d/%d/5µs",
					g.Issued(), g.Completed(), g.Latency.Mean(), tc.issued, tc.issued)
			}
		})
	}
}

// TestBacklogHoldsNoSlot: an arrival the I/O path has not pulled is only a
// number, and one it has pulled is only its arrival instant. A post-all
// burst behind a sink that never pulls counts as issued but draws no key;
// each request pulled later gets the next key of the stream, and completing
// it with its own arrival instant — in any order — starts its latency
// there, whatever the instant it was pulled at. None of it allocates.
func TestBacklogHoldsNoSlot(t *testing.T) {
	k := sim.New(1)
	var announced uint64
	g, err := NewGenerator(k, 1, &SequentialKeys{N: 100}, Burst{}, sim.Second, func(n uint64) { announced += n })
	if err != nil {
		t.Fatal(err)
	}
	const n = 1 << 20
	if allocs := testing.AllocsPerRun(1, func() { g.BeginPeriod(n) }); allocs != 0 {
		t.Errorf("announcing 2^20 arrivals allocated %v times", allocs)
	}
	if announced != 2*n || g.Issued() != 2*n { // AllocsPerRun(1, f) calls f twice
		t.Errorf("announced %d, Issued %d, want %d", announced, g.Issued(), 2*n)
	}

	k.RunUntil(10 * sim.Microsecond)
	arrivedAt := []sim.Time{0, 3 * sim.Microsecond, 7 * sim.Microsecond}
	three := func() {
		for _, at := range arrivedAt {
			g.Next(at)
		}
		for i := len(arrivedAt) - 1; i >= 0; i-- { // completions may cross
			g.Complete(arrivedAt[i])
		}
	}
	three() // the histogram allocates a row per octave on its first sample there
	if allocs := testing.AllocsPerRun(1, three); allocs != 0 {
		t.Errorf("pulling and completing three requests allocated %v times", allocs)
	}
	if key := g.Next(0); key != 9 { // three runs of three came before
		t.Errorf("the tenth request got key %d", key)
	}
	if g.Completed() != 9 {
		t.Errorf("completed %d, want 9", g.Completed())
	}
	if g.Latency.Percentile(0) != 3*sim.Microsecond || g.Latency.Percentile(100) != 10*sim.Microsecond {
		t.Errorf("latency min/max = %v/%v, want 3µs/10µs (measured from each request's arrival)",
			g.Latency.Percentile(0), g.Latency.Percentile(100))
	}
}
