package rdma

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

const (
	// prefixSize is the length of the owner-supplied prefix that opens every
	// unwritten page of a paged region.
	prefixSize = 8
	// chunkPages is the number of pages one chunk of a paged region's page
	// directory maps.
	chunkPages = 256
)

// Region is a registered memory region on a node, addressable by remote
// one-sided verbs. In a real system the owner would exchange an rkey with
// its peers; in the simulation the *Region value itself is the capability.
//
// All multi-byte cells use little-endian layout, matching x86 hosts.
//
// A region is flat — one slab, buf — or paged (RegisterPagedRegion). A
// paged region holds memory only for the pages something has written.
// A page nobody wrote still has defined contents: the 8-byte
// little-endian prefix its owner supplies for it, zeros after. Every
// accessor and every verb sees exactly those bytes, so a paged region
// and a flat one filled with them are indistinguishable through this
// API; only their footprint differs.
type Region struct {
	name  string
	owner *Node
	size  int

	// buf is the whole region when it is flat and nil when it is paged.
	buf []byte

	// Paged state, all zero on a flat region. The page table is a directory
	// of chunkPages-page chunks; a chunk, and a page's entry in it, is nil
	// until first written (page, setPage). prefix(p) is consulted on every
	// access to an unwritten page, so an owner that changes what it returns
	// has stored to that page. scratch is the page a same-shard READ of an
	// unwritten page is served from: only its first prefixSize bytes are
	// ever rewritten, the tail stays zero for the region's lifetime.
	pageSize int
	dir      []*[chunkPages][]byte
	written  int // pages allocated so far
	prefix   func(page int) uint64
	scratch  []byte

	// landed is written only on the owner's kernel (see QP.land).
	landed Landed
}

// Landed returns the counts of one-sided verbs that have landed on the
// region.
func (r *Region) Landed() Landed { return r.landed }

// Size returns the region length in bytes.
func (r *Region) Size() int { return r.size }

// Paged reports whether unwritten pages of the region cost no memory:
// false for a flat region.
func (r *Region) Paged() bool { return r.buf == nil }

// Resident returns the bytes of memory that back the region: its size
// when flat, the written pages while paged.
func (r *Region) Resident() int {
	if r.buf != nil {
		return len(r.buf)
	}
	return r.written * r.pageSize
}

// checkRange validates an access window. The bound is tested as
// size > len-off, which cannot wrap: off+size can, for off near
// math.MaxInt, and would let the access through to a slice panic.
func (r *Region) checkRange(off, size int) error {
	if off < 0 || size < 0 || size > r.size-off {
		return fmt.Errorf("rdma: region %q: access of %d bytes at offset %d outside [0,%d)",
			r.name, size, off, r.size)
	}
	return nil
}

// split locates off in a paged region: its page and the offset inside it.
func (r *Region) split(off int) (page, in int) {
	page = off / r.pageSize
	return page, off - page*r.pageSize
}

// page returns written page p, nil while it is unwritten.
func (r *Region) page(p int) []byte {
	if c := r.dir[p/chunkPages]; c != nil {
		return c[p%chunkPages]
	}
	return nil
}

// setPage allocates page p — and its chunk, for the chunk's first page —
// holding the bytes the unwritten page defined.
func (r *Region) setPage(p int) []byte {
	c := r.dir[p/chunkPages]
	if c == nil {
		c = new([chunkPages][]byte)
		r.dir[p/chunkPages] = c
	}
	pg := make([]byte, r.pageSize)
	binary.LittleEndian.PutUint64(pg, r.prefix(p))
	c[p%chunkPages] = pg
	r.written++
	return pg
}

// prefixBytes returns the eight bytes that open unwritten page p.
func (r *Region) prefixBytes(p int) (pre [prefixSize]byte) {
	binary.LittleEndian.PutUint64(pre[:], r.prefix(p))
	return pre
}

// unwritten fills dst with bytes [in, in+len(dst)) of unwritten page p.
func (r *Region) unwritten(dst []byte, p, in int) {
	n := 0
	if in < prefixSize {
		pre := r.prefixBytes(p)
		n = copy(dst, pre[in:])
	}
	clear(dst[n:])
}

// isUnwritten reports whether src equals bytes [in, in+len(src)) of
// unwritten page p. The zeros are compared against scratch's invariant
// tail, never its prefix, so a READ view of scratch stays undisturbed.
func (r *Region) isUnwritten(src []byte, p, in int) bool {
	n := 0
	if in < prefixSize {
		pre := r.prefixBytes(p)
		n = min(len(src), prefixSize-in)
		if !bytes.Equal(src[:n], pre[in:in+n]) {
			return false
		}
	}
	return bytes.Equal(src[n:], r.scratch[in+n:in+len(src)])
}

// read copies the bytes at [off, off+len(dst)) into dst. The range must
// have been checked.
func (r *Region) read(dst []byte, off int) {
	if r.buf != nil {
		copy(dst, r.buf[off:])
		return
	}
	for len(dst) > 0 {
		p, in := r.split(off)
		n := min(len(dst), r.pageSize-in)
		if pg := r.page(p); pg != nil {
			copy(dst[:n], pg[in:])
		} else {
			r.unwritten(dst[:n], p, in)
		}
		dst, off = dst[n:], off+n
	}
}

// write stores src at off. The range must have been checked. On a paged
// region a page is allocated by the first write that changes it; bytes
// equal to what an unwritten page already holds leave it unwritten.
func (r *Region) write(off int, src []byte) {
	if r.buf != nil {
		copy(r.buf[off:], src)
		return
	}
	for len(src) > 0 {
		p, in := r.split(off)
		n := min(len(src), r.pageSize-in)
		pg := r.page(p)
		if pg == nil && !r.isUnwritten(src[:n], p, in) {
			pg = r.setPage(p)
		}
		if pg != nil {
			copy(pg[in:], src[:n])
		}
		src, off = src[n:], off+n
	}
}

// zero clears the n bytes at off. The range must have been checked. On a
// paged region a written page is cleared in place; an unwritten one is
// left unwritten unless the range covers a nonzero byte of its prefix.
func (r *Region) zero(off, n int) {
	if r.buf != nil {
		clear(r.buf[off : off+n])
		return
	}
	for n > 0 {
		p, in := r.split(off)
		m := min(n, r.pageSize-in)
		pg := r.page(p)
		if pg == nil && in < prefixSize {
			if pre := r.prefixBytes(p); !isZero(pre[in:min(in+m, prefixSize)]) {
				pg = r.setPage(p)
			}
		}
		if pg != nil {
			clear(pg[in : in+m])
		}
		off, n = off+m, n-m
	}
}

// isZero reports whether every byte of b is zero: the first one is, and
// each equals the one before it.
func isZero(b []byte) bool {
	return len(b) == 0 || b[0] == 0 && bytes.Equal(b[1:], b[:len(b)-1])
}

// window returns the bytes at [off, off+size) for a same-shard READ's
// callback, without copying where they are contiguous: the flat slab, a
// written page, or scratch with the page's prefix stored into it (eight
// bytes per READ; the zero tail is never touched). Only a window that
// straddles pages of a paged region is assembled in a buffer of its own.
// The slice is valid until the next window call and must not be written
// through. The range must have been checked.
func (r *Region) window(off, size int) []byte {
	if r.buf != nil {
		return r.buf[off : off+size]
	}
	if size == 0 {
		return r.scratch[:0]
	}
	p, in := r.split(off)
	if in+size <= r.pageSize {
		if pg := r.page(p); pg != nil {
			return pg[in : in+size]
		}
		binary.LittleEndian.PutUint64(r.scratch, r.prefix(p))
		return r.scratch[in : in+size]
	}
	out := make([]byte, size)
	r.read(out, off)
	return out
}

// Window returns the bytes [off, off+size) as a same-shard READ's
// callback sees them (see QP.Read), to a reader on the region's kernel
// whose verb has already paid for them. The slice is valid until the
// calling callback returns and must not be written through.
func (r *Region) Window(off, size int) ([]byte, error) {
	if err := r.checkRange(off, size); err != nil {
		return nil, err
	}
	return r.window(off, size), nil
}

// load64 reads the 8-byte cell at off; store64 writes it. The range must
// have been checked.
func (r *Region) load64(off int) uint64 {
	var cell [8]byte
	r.read(cell[:], off)
	return binary.LittleEndian.Uint64(cell[:])
}

func (r *Region) store64(off int, v uint64) {
	var cell [8]byte
	binary.LittleEndian.PutUint64(cell[:], v)
	r.write(off, cell[:])
}

// View returns the region's own bytes [off, off+size) to code running on
// the owner node: a local (owner-side CPU) access with no simulated cost,
// like the cell accessors below, for an owner that walks or fills its
// region in bulk. The view aliases the region: the owner sees a remote
// WRITE or atomic once the fabric has applied it, and what the owner
// stores is what a later one-sided READ returns. It must not leave the
// owner — a remote node's access through it would cost nothing in the
// model — and its capacity ends at off+size, so an append cannot spill
// into the bytes behind it. Only a flat region has bytes to alias: on a
// paged one View is an error.
func (r *Region) View(off, size int) ([]byte, error) {
	if err := r.checkRange(off, size); err != nil {
		return nil, err
	}
	if r.buf == nil {
		return nil, fmt.Errorf("rdma: region %q: no view of a paged region", r.name)
	}
	return r.buf[off : off+size : off+size], nil
}

// Uint64 reads the 8-byte little-endian cell at off. It is a local
// (owner-side CPU) access with no simulated cost; remote access must go
// through a QP verb.
func (r *Region) Uint64(off int) (uint64, error) {
	if err := r.checkRange(off, 8); err != nil {
		return 0, err
	}
	return r.load64(off), nil
}

// PutUint64 writes the 8-byte cell at off as unsigned.
func (r *Region) PutUint64(off int, v uint64) error {
	if err := r.checkRange(off, 8); err != nil {
		return err
	}
	r.store64(off, v)
	return nil
}

// CopyIn copies data into the region at off locally (owner-side).
func (r *Region) CopyIn(off int, data []byte) error {
	if err := r.checkRange(off, len(data)); err != nil {
		return err
	}
	r.write(off, data)
	return nil
}
