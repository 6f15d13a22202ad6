package rdma

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// Test geometry: pages small enough that an 8-byte cell or a short window
// straddles them often, prefixes that are zero on some pages.
const (
	fuzzPages    = 6
	fuzzPageSize = 24
	fuzzSize     = fuzzPages * fuzzPageSize
)

// fuzzGeometries are the regions FuzzPagedRegion runs on: a page count, and
// the page at which the window its offsets decode into opens (the window
// runs to the region's end and a little past it).
var fuzzGeometries = []struct{ pages, base int }{
	{fuzzPages, 0},                     // every page in reach
	{1, 0},                             // one page in one chunk
	{chunkPages + 2, chunkPages - 3},   // pages 253..257: a chunk boundary, then the end of a 2-page last chunk
	{2 * chunkPages, 2*chunkPages - 4}, // the region ends where its last chunk does
}

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
	size        int
	// dirty[p]: page p of the flat region has differed from its prefix plus
	// zeros after some step — exactly the pages the paged region must hold.
	dirty []bool
}

func newRegionPair(t *testing.T, pages int) *regionPair {
	t.Helper()
	b := newPoolBed(t, false, nil)
	paged, err := b.server.RegisterPagedRegion("paged", pages, fuzzPageSize, fuzzPrefix)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := b.server.RegisterRegion("flat", pages*fuzzPageSize)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < pages; p++ {
		if err := flat.PutUint64(p*fuzzPageSize, fuzzPrefix(p)); err != nil {
			t.Fatal(err)
		}
	}
	return &regionPair{bed: b, paged: paged, flat: flat, size: pages * fuzzPageSize, dirty: make([]bool, pages)}
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

// same compares everything readable — the bytes — and the paged region's
// footprint: it holds a page exactly where the flat region has ever
// differed from the unwritten contents, a chunk exactly where it holds a
// page, and its scratch page still ends in zeros.
func (rp *regionPair) same(t *testing.T, what string) {
	t.Helper()
	got, err := rp.paged.CopyOut(0, rp.size)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := rp.flat.CopyOut(0, rp.size)
	if !bytes.Equal(got, want) {
		t.Fatalf("after %s the regions differ:\npaged %x\nflat  %x", what, got, want)
	}
	if !bytes.Equal(rp.paged.scratch[prefixSize:], make([]byte, fuzzPageSize-prefixSize)) {
		t.Fatalf("after %s: scratch tail is no longer zero: %x", what, rp.paged.scratch)
	}
	unwritten, resident := make([]byte, fuzzPageSize), 0
	inChunk := make([]bool, len(rp.paged.dir))
	for p := range rp.dirty {
		clear(unwritten)
		binary.LittleEndian.PutUint64(unwritten, fuzzPrefix(p))
		if !bytes.Equal(want[p*fuzzPageSize:(p+1)*fuzzPageSize], unwritten) {
			rp.dirty[p] = true
		}
		pg := rp.paged.page(p)
		if (pg != nil) != rp.dirty[p] || (pg != nil && len(pg) != fuzzPageSize) {
			t.Fatalf("after %s: page %d holds %d bytes, written = %v", what, p, len(pg), rp.dirty[p])
		}
		if rp.dirty[p] {
			resident += fuzzPageSize
			inChunk[p/chunkPages] = true
		}
	}
	for c, chunk := range rp.paged.dir {
		if (chunk != nil) != inChunk[c] {
			t.Fatalf("after %s: chunk %d allocated = %v, holds a written page = %v", what, c, chunk != nil, inChunk[c])
		}
	}
	if got := rp.paged.Resident(); got != resident || !rp.paged.Paged() {
		t.Fatalf("after %s: %d bytes resident, want %d; paged = %v", what, got, resident, rp.paged.Paged())
	}
}

// program decodes a fuzz input into operations on a window of the region:
// span bytes from base, and ten past them.
type program struct {
	b          []byte
	base, span int
}

func (p *program) next() byte {
	if len(p.b) == 0 {
		return 0
	}
	v := p.b[0]
	p.b = p.b[1:]
	return v
}

// off decodes an offset: mostly in the window or just past the region,
// sometimes one of the values a wrapping range check lets through.
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
		return p.base + v%(p.span+10)
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
// (a write that changes nothing must not cost a page), a pattern, or, for
// a pattern byte of 0x80 or more, a head of up to 8 pattern bytes and zeros
// after it (the payload a WRITE captures inline).
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
		end := n
		if k >= 0x80 {
			end = min(n, 1+int(k%8))
		}
		for i := range data[:end] {
			data[i] = k + byte(i)
		}
	}
	return data
}

// FuzzPagedRegion drives a paged region and a flat one filled from the same
// prefix function through the same owner-side accesses and one-sided verbs
// — page- and chunk-straddling and out-of-range windows included,
// same-shard and cross-shard — and requires equal bytes, equal errors,
// equal callback payloads and a page held only where one was written, at
// every step. An op byte with bit 0x10 set first posts a SEND on the same
// QP, so records with an extension are recycled between SENDs, CMP_SWAPs,
// buffered WRITEs and cross-shard verbs; the SEND must deliver its own
// payload, and every pooled record must hold nothing of its last verb. The
// input's first byte picks the geometry.
func FuzzPagedRegion(f *testing.F) {
	// TestRegionRangeOverflow's offsets, through every accessor and verb.
	for _, off := range []byte{255, 254, 253, 252} {
		f.Add([]byte{0, 0, off, 8, 2, 1, off, 8, 2, off, 3, off, 1, 2, 3, 4, 5, 6, 7, 8,
			4, off, 8, 5, off, 8, 2, 6, off, 1, 0, 0, 0, 0, 0, 0, 0, 7, off, 0})
	}
	f.Add([]byte{0, 1, 8, 255})                                  // CopyOut(8, MaxInt)
	f.Add([]byte{0, 0, 20, 8, 7, 4, 16, 30, 12, 16, 30})         // straddling CopyIn, then READs both ways
	f.Add([]byte{0, 6, 20, 5, 0, 0, 0, 0, 0, 0, 0, 8, 4, 0, 24}) // straddling FETCH_ADD, READ
	f.Add([]byte{0, 0, 0, 24, 1, 6, 0, 0, 0, 0, 0, 0, 0, 0, 0})  // rewrite what is there; FETCH_ADD of 0
	f.Add([]byte{0, 1, 27, 8, 4, 3, 10, 12, 28, 4, 2, 4})        // windows that open inside a prefix
	// One page: every access ends at the region's end or past it.
	f.Add([]byte{1, 1, 0, 24, 3, 16, 1, 2, 3, 4, 5, 6, 7, 8, 5, 20, 8, 2, 4, 0, 24, 14, 16, 1, 0, 0, 0, 0, 0, 0, 0, 7, 0, 1, 9, 0, 0, 0, 0, 0, 0, 0})
	// Pages 253..257 of 258 (the window opens at page 253): WRITE page 255,
	// READ across the chunk boundary, CopyIn page 256, FETCH_ADD across
	// 256/257 in the 2-page last chunk, a cross-shard WRITE past the end,
	// a cross-shard READ of page 257.
	f.Add([]byte{2, 5, 48, 24, 2, 4, 60, 24, 0, 72, 10, 3, 6, 92, 1, 0, 0, 0, 0, 1, 0, 0, 13, 100, 30, 2, 12, 96, 24})
	// A cell and a WRITE that straddle the chunk boundary itself.
	f.Add([]byte{2, 3, 68, 1, 2, 3, 4, 5, 6, 7, 8, 13, 50, 40, 6, 15, 68, 1, 9, 9, 9, 9, 9, 9, 9, 9})
	// 512 pages, the window on the last four: the region ends with its chunk.
	f.Add([]byte{3, 5, 72, 24, 2, 14, 68, 0, 0, 0, 0, 0, 1, 0, 0, 4, 90, 12, 0, 94, 2, 2, 12, 72, 24})
	// Zero-tail WRITEs: a 3-byte head straddling pages 0 and 1, an 8-byte
	// head straddling them, one over a written page (it clears the tail),
	// and one across the shard boundary.
	f.Add([]byte{0, 5, 20, 40, 0x82, 5, 20, 40, 0x87, 0, 30, 20, 2, 5, 26, 40, 0xa1, 13, 44, 30, 0x83})
	// On one page: a zero-tail WRITE whose head covers the prefix, then one
	// that leaves the prefix and clears the rest.
	f.Add([]byte{1, 5, 0, 24, 0x85, 5, 8, 16, 0x80, 13, 2, 20, 0x86})
	// Across the chunk boundary, same-shard and cross-shard.
	f.Add([]byte{2, 5, 68, 40, 0x84, 13, 60, 30, 0x8f, 4, 60, 40, 12, 66, 40})
	// SENDs beside every verb: a buffered WRITE then a zero-tail one on
	// the recycled record, a CMP_SWAP, a READ, cross-shard the same.
	f.Add([]byte{0, 0x15, 10, 30, 2, 0x15, 10, 30, 0x81, 0x17, 16, 1, 5, 0, 0, 0, 0, 0, 0, 0, 0x14, 10, 30,
		0x1d, 40, 30, 3, 0x1d, 40, 30, 0x82, 0x1f, 48, 0, 9, 0, 0, 0, 0, 0, 0, 0, 0x1c, 40, 30, 0x1e, 48, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, input []byte) {
		p := &program{b: input}
		g := fuzzGeometries[int(p.next())%len(fuzzGeometries)]
		p.base, p.span = g.base*fuzzPageSize, (g.pages-g.base)*fuzzPageSize
		rp := newRegionPair(t, g.pages)
		b := rp.bed
		var received []Message
		b.server.SetRecvHandler(func(_ *Node, m Message) { received = append(received, m) })
		for step := 0; step < 48 && len(p.b) > 0; step++ {
			code := p.next()
			op := code % 16
			qp := b.localQP
			if op >= 8 { // the verbs again, across the shard boundary
				qp = b.qp
			}
			what := fmt.Sprintf("step %d op %d", step, op)
			// A SEND first: its message is the step on even steps, empty on
			// odd ones, so a stale message shows; the op byte is its size.
			var sent Message
			if code&0x10 != 0 {
				if step%2 == 0 {
					sent = Message{Kind: kindX, Seq: uint32(step), A: int64(code)}
				}
				if err := qp.Send(sent, int(code), func() {}); err != nil {
					t.Fatalf("%s: SEND: %v", what, err)
				}
			}
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
			var wrote []byte // a WRITE's payload, landed at wroteAt
			wroteAt := 0
			switch op % 8 {
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
			case 2: // Uint64
				off := p.off()
				got, gerr := rp.paged.Uint64(off)
				want, werr := rp.flat.Uint64(off)
				if rp.sameErr(t, what, gerr, werr) && got != want {
					t.Fatalf("%s: Uint64(%d) = %#x, flat %#x", what, off, got, want)
				}
			case 3: // PutUint64
				off, v := p.off(), p.u64()
				rp.sameErr(t, what, rp.paged.PutUint64(off, v), rp.flat.PutUint64(off, v))
			case 4: // READ
				off, n := p.off(), p.size()
				for i, r := range regions {
					errs[i] = qp.Read(r, off, n, onRead[i])
				}
			case 5: // WRITE
				off, n := p.off(), p.size()
				data := p.payload(rp.flat, off, n)
				for i, r := range regions {
					errs[i] = qp.Write(r, off, data, nil)
				}
				wrote, wroteAt = data, off
			case 6: // FETCH_ADD
				off, delta := p.off(), int64(p.u64())
				for i, r := range regions {
					errs[i] = qp.FetchAdd(r, off, delta, onOld[i])
				}
			case 7: // CMP_SWAP against the cell's value or a wild guess
				off, guess, swap := p.off(), p.next(), int64(p.u64())
				cell, err := rp.flat.Uint64(off)
				expect := int64(cell)
				if err != nil || guess%2 == 0 {
					expect = int64(guess)
				}
				for i, r := range regions {
					errs[i] = qp.CompareSwap(r, off, expect, swap, onOld[i])
				}
			}
			rp.sameErr(t, what, errs[0], errs[1])
			b.settle()
			if !bytes.Equal(log[0], log[1]) {
				t.Fatalf("%s: callbacks delivered %x from the paged region, %x from the flat one", what, log[0], log[1])
			}
			rp.same(t, what)
			if got, err := rp.flat.CopyOut(wroteAt, len(wrote)); wrote != nil && errs[1] == nil && !bytes.Equal(got, wrote) {
				t.Fatalf("%s: WRITE of %x at %d landed as %x (%v)", what, wrote, wroteAt, got, err)
			}
			if code&0x10 != 0 {
				if len(received) != 1 || received[0] != sent {
					t.Fatalf("%s: SEND of %v delivered %v", what, sent, received)
				}
				received = received[:0]
			}
			for _, pool := range []*opPool{b.client.pool, b.local.pool} {
				for _, op := range pool.records() {
					if !recycled(op) {
						t.Fatalf("%s: a pooled record still holds its verb", what)
					}
				}
			}
		}
	})
}

func TestIsZero(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 8, 9, 4088} {
		b := make([]byte, n)
		if !isZero(b) {
			t.Errorf("%d zeros: isZero = false", n)
		}
		for _, i := range []int{0, 1, n / 2, n - 1} {
			if i < 0 || i >= n {
				continue
			}
			b[i] = 1
			if isZero(b) {
				t.Errorf("%d bytes, byte %d set: isZero = true", n, i)
			}
			b[i] = 0
		}
	}
}

// What the paged region is for: a page costs memory only once a write
// changes it, whichever path the write takes, and reading never does.
func TestPagedRegionFootprint(t *testing.T) {
	rp := newRegionPair(t, fuzzPages)
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

	// The page table costs nothing until a page is written: the first write
	// into a chunk pays for the page and the chunk's 256 entries, the next
	// one in that chunk for its page alone, a rewrite for nothing.
	const pages = 2*chunkPages + 10
	big, err := b.server.RegisterPagedRegion("big", pages, DataIOSize, fuzzPrefix)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(big.dir); got != 3 {
		t.Fatalf("%d pages are mapped by %d chunks, want 3", pages, got)
	}
	chunk := int(unsafe.Sizeof([chunkPages][]byte{}))
	for _, c := range []struct {
		what  string
		page  int
		alloc int
	}{
		{"the first write into chunk 1", chunkPages + 44, DataIOSize + chunk},
		{"a second page of chunk 1", chunkPages + 45, DataIOSize},
		{"a rewrite", chunkPages + 44, 0},
		{"the first write into the 10-page last chunk", pages - 1, DataIOSize + chunk},
		{"the first write into chunk 0", chunkPages - 1, DataIOSize + chunk},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := big.PutUint64(c.page*DataIOSize+64, uint64(c.page))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		// The runtime rounds the chunk up to a size class (6 144 → 6 528 B
		// with go1.24's allocation header); a page is a class of its own.
		slack := 0
		if c.alloc > DataIOSize {
			slack = chunk / 8
		}
		if got := int(after.TotalAlloc - before.TotalAlloc); got < c.alloc || got > c.alloc+slack {
			t.Errorf("%s allocated %d bytes, want %d (+%d)", c.what, got, c.alloc, slack)
		}
	}
	if got := big.Resident(); got != 4*DataIOSize {
		t.Errorf("%d bytes resident after writing 4 pages", got)
	}
	for _, page := range []int{0, chunkPages - 1, chunkPages, chunkPages + 44, pages - 1} {
		want := uint64(0)
		if page == chunkPages+44 || page == chunkPages-1 || page == pages-1 {
			want = uint64(page)
		}
		if v, err := big.Uint64(page*DataIOSize + 64); err != nil || v != want {
			t.Errorf("page %d cell = %d, %v; want %d", page, v, err, want)
		}
		if v, err := big.Uint64(page * DataIOSize); err != nil || v != fuzzPrefix(page) {
			t.Errorf("page %d prefix = %#x, %v", page, v, err)
		}
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
