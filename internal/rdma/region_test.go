package rdma

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"
)

// Test geometry: pages small enough that an 8-byte cell or a short window
// straddles them often, prefixes that are zero on some pages.
const (
	fuzzPages    = 6
	fuzzPageSize = 24
	fuzzSize     = fuzzPages * fuzzPageSize
)

func fuzzPrefix(page int) uint64 {
	if page%3 == 2 {
		return 0
	}
	return 0x0102030405060708 * uint64(page+1)
}

// regionPair is a paged region beside the flat region holding the bytes it
// defines, on one server reachable same-shard and cross-shard.
type regionPair struct {
	bed         *poolBed
	paged, flat *Region
}

func newRegionPair(t *testing.T) *regionPair {
	t.Helper()
	b := newPoolBed(t, 1, false, nil)
	paged, err := b.server.RegisterPagedRegion("paged", fuzzPages, fuzzPageSize, fuzzPrefix)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := b.server.RegisterRegion("flat", fuzzSize)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < fuzzPages; p++ {
		if err := flat.PutUint64(p*fuzzPageSize, fuzzPrefix(p)); err != nil {
			t.Fatal(err)
		}
	}
	return &regionPair{bed: b, paged: paged, flat: flat}
}

// sameErr compares the outcome of one call on each region; the messages
// may differ only in the region's name.
func (rp *regionPair) sameErr(t *testing.T, what string, paged, flat error) bool {
	t.Helper()
	switch {
	case paged == nil && flat == nil:
		return true
	case paged == nil || flat == nil ||
		strings.Replace(paged.Error(), `"paged"`, `"flat"`, 1) != flat.Error():
		t.Fatalf("%s: paged region says %v, flat region %v", what, paged, flat)
	}
	return false
}

// same compares everything readable: the bytes, and while the region is
// still paged the invariants its READ path rests on.
func (rp *regionPair) same(t *testing.T, what string) {
	t.Helper()
	got, err := rp.paged.CopyOut(0, fuzzSize)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := rp.flat.CopyOut(0, fuzzSize)
	if !bytes.Equal(got, want) {
		t.Fatalf("after %s the regions differ:\npaged %x\nflat  %x", what, got, want)
	}
	if !rp.paged.Paged() {
		if rp.paged.pages != nil || rp.paged.scratch != nil || rp.paged.Resident() != fuzzSize {
			t.Fatalf("after %s: materialised region kept paged state", what)
		}
		return
	}
	if !bytes.Equal(rp.paged.scratch[prefixSize:], make([]byte, fuzzPageSize-prefixSize)) {
		t.Fatalf("after %s: scratch tail is no longer zero: %x", what, rp.paged.scratch)
	}
	for p, pg := range rp.paged.pages {
		if pg != nil && len(pg) != fuzzPageSize {
			t.Fatalf("after %s: page %d holds %d bytes", what, p, len(pg))
		}
	}
}

// program decodes a fuzz input into operations.
type program struct{ b []byte }

func (p *program) next() byte {
	if len(p.b) == 0 {
		return 0
	}
	v := p.b[0]
	p.b = p.b[1:]
	return v
}

// off decodes an offset: mostly in or just past the region, sometimes one
// of the values a wrapping range check lets through.
func (p *program) off() int {
	switch v := int(p.next()); v {
	case 255:
		return math.MaxInt
	case 254:
		return math.MaxInt - 7
	case 253:
		return math.MaxInt - 8
	case 252:
		return -1
	default:
		return v % (fuzzSize + 10)
	}
}

func (p *program) size() int {
	v := int(p.next())
	if v == 255 {
		return math.MaxInt
	}
	return v % (3*fuzzPageSize + 2)
}

func (p *program) u64() uint64 {
	var b [8]byte
	for i := range b {
		b[i] = p.next()
	}
	return binary.LittleEndian.Uint64(b[:])
}

// payload decodes n bytes to write at off: zeros, the bytes already there
// (a write that changes nothing must not cost a page), or a pattern.
func (p *program) payload(flat *Region, off, n int) []byte {
	if n > 4*fuzzPageSize {
		n = 4 * fuzzPageSize
	}
	data := make([]byte, n)
	switch k := p.next(); k % 4 {
	case 0:
	case 1:
		if cur, err := flat.CopyOut(off, n); err == nil {
			copy(data, cur)
		}
	default:
		for i := range data {
			data[i] = k + byte(i)
		}
	}
	return data
}

// FuzzPagedRegion drives a paged region and a flat one through the same
// owner-side accesses and one-sided verbs — page-straddling and
// out-of-range windows included, same-shard and cross-shard, with
// Materialize at an arbitrary step — and requires equal bytes, equal
// errors and equal callback payloads at every step.
func FuzzPagedRegion(f *testing.F) {
	// TestRegionRangeOverflow's offsets, through every accessor and verb.
	for _, off := range []byte{255, 254, 253, 252} {
		f.Add([]byte{9, 0, off, 8, 2, 1, off, 8, 2, off, 3, off, 1, 2, 3, 4, 5, 6, 7, 8,
			4, off, 8, 5, off, 8, 2, 6, off, 1, 0, 0, 0, 0, 0, 0, 0, 7, off, 0})
	}
	f.Add([]byte{0, 1, 8, 255})                                  // CopyOut(8, MaxInt)
	f.Add([]byte{2, 0, 20, 8, 7, 4, 16, 30, 12, 16, 30})         // straddling CopyIn, then READs both ways
	f.Add([]byte{1, 6, 20, 5, 0, 0, 0, 0, 0, 0, 0, 8, 4, 0, 24}) // straddling FETCH_ADD, Materialize, READ
	f.Add([]byte{30, 0, 0, 24, 1, 6, 0, 0, 0, 0, 0, 0, 0, 0, 0}) // rewrite what is there; FETCH_ADD of 0
	f.Add([]byte{30, 1, 27, 8, 4, 3, 10, 12, 28, 4, 2, 4})       // windows that open inside a prefix
	f.Fuzz(func(t *testing.T, input []byte) {
		rp := newRegionPair(t)
		b := rp.bed
		p := &program{b: input}
		materializeAt := int(p.next()) % 40
		for step := 0; step < 48 && len(p.b) > 0; step++ {
			if step == materializeAt {
				rp.paged.Materialize()
				rp.same(t, "Materialize")
			}
			op := p.next() % 16
			qp := b.localQP
			if op >= 8 { // the verbs again, across the shard boundary
				qp = b.qp
			}
			what := fmt.Sprintf("step %d op %d", step, op)
			// Callback payloads, in arrival order, per region.
			var log [2][]byte
			regions := [2]*Region{rp.paged, rp.flat}
			onRead := [2]func([]byte){
				func(d []byte) { log[0] = append(log[0], d...) },
				func(d []byte) { log[1] = append(log[1], d...) },
			}
			onOld := [2]func(int64){
				func(v int64) { log[0] = binary.LittleEndian.AppendUint64(log[0], uint64(v)) },
				func(v int64) { log[1] = binary.LittleEndian.AppendUint64(log[1], uint64(v)) },
			}
			var errs [2]error
			switch op {
			case 0: // CopyIn
				off, n := p.off(), p.size()
				data := p.payload(rp.flat, off, n)
				rp.sameErr(t, what, rp.paged.CopyIn(off, data), rp.flat.CopyIn(off, data))
			case 1: // CopyOut
				off, n := p.off(), p.size()
				got, gerr := rp.paged.CopyOut(off, n)
				want, werr := rp.flat.CopyOut(off, n)
				if rp.sameErr(t, what, gerr, werr) && !bytes.Equal(got, want) {
					t.Fatalf("%s: CopyOut(%d, %d) = %x, flat %x", what, off, n, got, want)
				}
			case 2: // Int64
				off := p.off()
				got, gerr := rp.paged.Int64(off)
				want, werr := rp.flat.Int64(off)
				if rp.sameErr(t, what, gerr, werr) && got != want {
					t.Fatalf("%s: Int64(%d) = %#x, flat %#x", what, off, got, want)
				}
			case 3: // PutUint64
				off, v := p.off(), p.u64()
				rp.sameErr(t, what, rp.paged.PutUint64(off, v), rp.flat.PutUint64(off, v))
			case 4, 12: // READ
				off, n := p.off(), p.size()
				for i, r := range regions {
					errs[i] = qp.Read(r, off, n, onRead[i])
				}
			case 5, 13: // WRITE
				off, n := p.off(), p.size()
				data := p.payload(rp.flat, off, n)
				for i, r := range regions {
					errs[i] = qp.Write(r, off, data, nil)
				}
			case 6, 14: // FETCH_ADD
				off, delta := p.off(), int64(p.u64())
				for i, r := range regions {
					errs[i] = qp.FetchAdd(r, off, delta, onOld[i])
				}
			case 7, 15: // CMP_SWAP against the cell's value or a wild guess
				off, guess, swap := p.off(), p.next(), int64(p.u64())
				expect, err := rp.flat.Int64(off)
				if err != nil || guess%2 == 0 {
					expect = int64(guess)
				}
				for i, r := range regions {
					errs[i] = qp.CompareSwap(r, off, expect, swap, onOld[i])
				}
			default: // 8..11: Materialize early (idempotent)
				if op == 9 {
					rp.paged.Materialize()
				}
			}
			rp.sameErr(t, what, errs[0], errs[1])
			b.settle()
			if !bytes.Equal(log[0], log[1]) {
				t.Fatalf("%s: callbacks delivered %x from the paged region, %x from the flat one", what, log[0], log[1])
			}
			rp.same(t, what)
		}
	})
}

// What the paged region is for: a page costs memory only once a write
// changes it, whichever path the write takes, and reading never does.
func TestPagedRegionFootprint(t *testing.T) {
	rp := newRegionPair(t)
	b, r := rp.bed, rp.paged
	resident := func(what string, pages int) {
		t.Helper()
		b.settle()
		if got := r.Resident(); got != pages*fuzzPageSize {
			t.Fatalf("after %s: %d bytes resident, want %d pages", what, got, pages)
		}
		rp.same(t, what)
	}
	if !r.Paged() || r.Size() != fuzzSize {
		t.Fatalf("fresh region: Paged = %v, Size = %d", r.Paged(), r.Size())
	}
	if _, err := r.View(0, 8); err == nil {
		t.Error("View of a paged region accepted")
	}

	// Reads of every kind, and writes of the bytes already there.
	page1, _ := rp.flat.CopyOut(fuzzPageSize, fuzzPageSize)
	straddle, _ := rp.flat.CopyOut(2*fuzzPageSize-4, 12)
	for _, qp := range []*QP{b.localQP, b.qp} {
		var seen []byte
		onRead := func(d []byte) { seen = append(seen, d...) }
		if err := qp.Read(r, fuzzPageSize, fuzzPageSize, onRead); err != nil {
			t.Fatal(err)
		}
		if err := qp.Read(r, 2*fuzzPageSize-4, 12, onRead); err != nil {
			t.Fatal(err)
		}
		if err := qp.FetchAdd(r, 0, 0, nil); err != nil {
			t.Fatal(err)
		}
		if err := qp.CompareSwap(r, fuzzPageSize, 1, 2, nil); err != nil { // no match
			t.Fatal(err)
		}
		b.settle()
		if want := append(append([]byte{}, page1...), straddle...); !bytes.Equal(seen, want) {
			t.Fatalf("%s: READs of unwritten pages delivered %x, want %x", qp.initiator.name, seen, want)
		}
	}
	if err := r.CopyIn(fuzzPageSize, page1); err != nil {
		t.Fatal(err)
	}
	if err := r.PutUint64(3*fuzzPageSize+8, 0); err != nil {
		t.Fatal(err)
	}
	resident("reads and no-op writes", 0)

	// One changed byte costs its page; a cell across two pages costs both.
	for _, rg := range []*Region{r, rp.flat} {
		if err := rg.CopyIn(fuzzPageSize+9, []byte{7}); err != nil {
			t.Fatal(err)
		}
	}
	resident("a one-byte CopyIn", 1)
	for _, rg := range []*Region{r, rp.flat} {
		if err := b.qp.FetchAdd(rg, 4*fuzzPageSize-4, 1<<40|5, nil); err != nil {
			t.Fatal(err)
		}
	}
	resident("a straddling FETCH_ADD", 3)
	for _, rg := range []*Region{r, rp.flat} {
		if err := b.localQP.Write(rg, 0, bytes.Repeat([]byte{9}, fuzzPageSize+1), nil); err != nil {
			t.Fatal(err)
		}
	}
	resident("a WRITE over page 0 into written page 1", 4)

	r.Materialize()
	if r.Paged() {
		t.Fatal("Materialize left the region paged")
	}
	resident("Materialize", fuzzPages)
	v, err := r.View(0, fuzzSize)
	if flat, _ := rp.flat.CopyOut(0, fuzzSize); err != nil || !bytes.Equal(v, flat) {
		t.Fatalf("view of the materialised region: %x, %v", v, err)
	}
}

func TestRegisterPagedRegionValidation(t *testing.T) {
	_, _, _, server := testFabric(t)
	for _, c := range []struct {
		pages, pageSize int
		prefix          func(int) uint64
	}{
		{4, 7, fuzzPrefix}, {4, 16, nil}, {0, 16, fuzzPrefix}, {-1, 16, fuzzPrefix},
		{math.MaxInt / 8, 16, fuzzPrefix},
	} {
		if _, err := server.RegisterPagedRegion("bad", c.pages, c.pageSize, c.prefix); err == nil {
			t.Errorf("RegisterPagedRegion(%d pages of %d) accepted", c.pages, c.pageSize)
		}
	}
	if _, err := server.RegisterPagedRegion("r", 4, 8, fuzzPrefix); err != nil {
		t.Fatal(err)
	}
	if _, err := server.RegisterRegion("r", 8); err == nil {
		t.Error("duplicate of a paged region's name accepted")
	}
}
