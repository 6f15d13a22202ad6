package rdma

import (
	"encoding/binary"
	"fmt"
)

// Region is a registered memory region on a node, addressable by remote
// one-sided verbs. In a real system the owner would exchange an rkey with
// its peers; in the simulation the *Region value itself is the capability.
//
// All multi-byte cells use little-endian layout, matching x86 hosts.
type Region struct {
	name  string
	owner *Node
	buf   []byte
}

// Name returns the region's diagnostic name.
func (r *Region) Name() string { return r.name }

// Size returns the region length in bytes.
func (r *Region) Size() int { return len(r.buf) }

// Owner returns the node the region is registered on.
func (r *Region) Owner() *Node { return r.owner }

// checkRange validates an access window. The bound is tested as
// size > len-off, which cannot wrap: off+size can, for off near
// math.MaxInt, and would let the access through to a slice panic.
func (r *Region) checkRange(off, size int) error {
	if off < 0 || size < 0 || size > len(r.buf)-off {
		return fmt.Errorf("rdma: region %q: access of %d bytes at offset %d outside [0,%d)",
			r.name, size, off, len(r.buf))
	}
	return nil
}

// bytes returns a view of the region. Callers must not retain the view
// across simulation events if the region may be concurrently written.
func (r *Region) bytes(off, size int) []byte { return r.buf[off : off+size] }

// View returns the region's own bytes [off, off+size) to code running on
// the owner node: a local (owner-side CPU) access with no simulated cost,
// like the cell accessors below, for an owner that walks or fills its
// region in bulk. The view aliases the region: the owner sees a remote
// WRITE or atomic once the fabric has applied it, and what the owner
// stores is what a later one-sided READ returns. It must not leave the
// owner — a remote node's access through it would cost nothing in the
// model — and its capacity ends at off+size, so an append cannot spill
// into the bytes behind it.
func (r *Region) View(off, size int) ([]byte, error) {
	if err := r.checkRange(off, size); err != nil {
		return nil, err
	}
	return r.buf[off : off+size : off+size], nil
}

// Int64 reads the 8-byte little-endian cell at off. It is a local
// (owner-side CPU) access with no simulated cost; remote access must go
// through a QP verb.
func (r *Region) Int64(off int) (int64, error) {
	if err := r.checkRange(off, 8); err != nil {
		return 0, err
	}
	return int64(binary.LittleEndian.Uint64(r.buf[off:])), nil
}

// PutInt64 writes the 8-byte little-endian cell at off locally.
func (r *Region) PutInt64(off int, v int64) error {
	if err := r.checkRange(off, 8); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(r.buf[off:], uint64(v))
	return nil
}

// Uint64 reads the 8-byte cell at off as unsigned.
func (r *Region) Uint64(off int) (uint64, error) {
	if err := r.checkRange(off, 8); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(r.buf[off:]), nil
}

// PutUint64 writes the 8-byte cell at off as unsigned.
func (r *Region) PutUint64(off int, v uint64) error {
	if err := r.checkRange(off, 8); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(r.buf[off:], v)
	return nil
}

// CopyIn copies data into the region at off locally (owner-side).
func (r *Region) CopyIn(off int, data []byte) error {
	if err := r.checkRange(off, len(data)); err != nil {
		return err
	}
	copy(r.buf[off:], data)
	return nil
}

// CopyOut copies size bytes from the region at off into a fresh slice.
func (r *Region) CopyOut(off, size int) ([]byte, error) {
	if err := r.checkRange(off, size); err != nil {
		return nil, err
	}
	out := make([]byte, size)
	copy(out, r.buf[off:])
	return out, nil
}
