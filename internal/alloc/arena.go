// Package alloc implements the paper's contribution (iv): the custom
// memory allocation strategy that let Uintah run at the edge of nodal
// memory on Titan.
//
// Three pieces, mirroring Section IV-B:
//
//   - Arena: a slab allocator standing in for the mmap-backed anonymous
//     virtual memory allocator used for large allocations ("we completely
//     avoided the heap by implementing a specialized allocator that uses
//     mmap"). Large transient buffers never touch the general heap, so
//     they cannot fragment it.
//   - BlockPool: a lock-free fixed-size block pool built on top of the
//     arena for small transient objects ("we developed a lock-free memory
//     pool on top of our mmap allocator to avoid the heap and to maximize
//     throughput"). Alloc/Free are single-CAS on the common path.
//   - FragHeap (frag.go): an instrumented model of a first-fit heap used
//     to *demonstrate* the fragmentation pathology (persistent small +
//     transient large allocations => unbounded heap growth) and its cure,
//     reproducing the paper's observation A3 in DESIGN.md.
package alloc

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Arena allocates byte ranges by carving them out of large slabs, the Go
// analogue of grabbing anonymous pages with mmap. Individual allocations
// cannot be freed; the whole arena is released at once (Reset), which is
// exactly the lifetime of Uintah's per-timestep MPI buffers. Allocation
// is O(1) amortized and, unlike the heap, cannot fragment: the slab
// pointer only moves forward.
type Arena struct {
	mu       sync.Mutex
	slabSize int
	slabs    [][]byte
	cur      []byte
	off      int

	allocated atomic.Int64 // bytes handed out since last Reset
	reserved  atomic.Int64 // bytes held in slabs
}

// NewArena creates an arena whose slabs are slabSize bytes; allocations
// larger than slabSize get a dedicated slab.
func NewArena(slabSize int) *Arena {
	if slabSize <= 0 {
		panic("alloc: arena slab size must be positive")
	}
	return &Arena{slabSize: slabSize}
}

// Alloc returns an n-byte zeroed slice carved from the arena.
func (a *Arena) Alloc(n int) []byte {
	if n < 0 {
		panic("alloc: negative allocation")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if n > a.slabSize {
		// Oversized: dedicated slab, like a direct mmap.
		s := make([]byte, n)
		a.slabs = append(a.slabs, s)
		a.reserved.Add(int64(n))
		a.allocated.Add(int64(n))
		return s
	}
	if a.cur == nil || a.off+n > len(a.cur) {
		a.cur = make([]byte, a.slabSize)
		a.off = 0
		a.slabs = append(a.slabs, a.cur)
		a.reserved.Add(int64(a.slabSize))
	}
	s := a.cur[a.off : a.off+n : a.off+n]
	a.off += n
	a.allocated.Add(int64(n))
	return s
}

// Reset releases every slab at once (munmap of the whole arena). All
// slices previously returned become invalid for reuse by convention.
func (a *Arena) Reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.slabs = nil
	a.cur = nil
	a.off = 0
	a.allocated.Store(0)
	a.reserved.Store(0)
}

// AllocatedBytes returns the bytes handed out since the last Reset.
func (a *Arena) AllocatedBytes() int64 { return a.allocated.Load() }

// ReservedBytes returns the bytes held in slabs.
func (a *Arena) ReservedBytes() int64 { return a.reserved.Load() }

// Utilization returns allocated/reserved in [0,1]; 0 for an empty arena.
func (a *Arena) Utilization() float64 {
	r := a.reserved.Load()
	if r == 0 {
		return 0
	}
	return float64(a.allocated.Load()) / float64(r)
}

// BlockPool is a lock-free pool of fixed-size blocks carved from one
// contiguous slab. The free list is an index-linked Treiber stack whose
// head packs a 32-bit ABA tag with a 32-bit index, so concurrent
// Alloc/Free from many goroutines is safe without locks — the property
// the paper needed for "frequent small allocations from multiple
// threads".
type BlockPool struct {
	blockSize int
	capacity  int
	slab      []byte
	next      []atomic.Int32
	head      atomic.Uint64 // tag<<32 | (index+1); 0 means empty

	inUse     atomic.Int64
	heapFalls atomic.Int64 // allocations that overflowed to the heap
}

// NewBlockPool creates a pool of capacity blocks of blockSize bytes.
func NewBlockPool(blockSize, capacity int) *BlockPool {
	if blockSize <= 0 || capacity <= 0 {
		panic("alloc: block pool needs positive block size and capacity")
	}
	if capacity >= 1<<31 {
		panic("alloc: block pool capacity exceeds index range")
	}
	p := &BlockPool{
		blockSize: blockSize,
		capacity:  capacity,
		slab:      make([]byte, blockSize*capacity),
		next:      make([]atomic.Int32, capacity),
	}
	// Chain all blocks onto the free list: i -> i+1, last -> -1.
	for i := 0; i < capacity-1; i++ {
		p.next[i].Store(int32(i + 1))
	}
	p.next[capacity-1].Store(-1)
	p.head.Store(pack(0, 1)) // head -> block 0 (stored as index+1)
	return p
}

func pack(tag uint32, idxPlus1 uint32) uint64 { return uint64(tag)<<32 | uint64(idxPlus1) }

// Block is one allocation from a BlockPool. The index identifies the
// block for Free; heap-fallback blocks carry index -1.
type Block struct {
	// Bytes is the block's storage, len == BlockSize.
	Bytes []byte
	index int
}

// Alloc returns one block. If the pool is exhausted it falls back to the
// heap (counted in HeapFallbacks) rather than blocking — a stalled
// consumer must not stop producers.
func (p *BlockPool) Alloc() Block {
	for {
		old := p.head.Load()
		idxPlus1 := uint32(old)
		if idxPlus1 == 0 {
			p.heapFalls.Add(1)
			p.inUse.Add(1)
			return Block{Bytes: make([]byte, p.blockSize), index: -1}
		}
		// The head packs (index+1) to reserve 0 for "empty".
		i := int(idxPlus1) - 1
		nxt := p.next[i].Load()
		tag := uint32(old>>32) + 1
		var newHead uint64
		if nxt < 0 {
			newHead = pack(tag, 0)
		} else {
			newHead = pack(tag, uint32(nxt)+1)
		}
		if p.head.CompareAndSwap(old, newHead) {
			p.inUse.Add(1)
			off := i * p.blockSize
			return Block{Bytes: p.slab[off : off+p.blockSize : off+p.blockSize], index: i}
		}
	}
}

// Free returns a block previously obtained from Alloc. Heap-fallback
// blocks are simply dropped for the GC. Freeing the same block twice is
// a caller bug and corrupts the free list, exactly as with a real
// allocator; the race/property tests verify the pool never hands out one
// block twice between frees.
func (p *BlockPool) Free(b Block) {
	p.inUse.Add(-1)
	i := b.index
	if i < 0 {
		return // heap fallback block; GC reclaims it
	}
	if i >= p.capacity {
		panic(fmt.Sprintf("alloc: Free of foreign block index %d (capacity %d)", i, p.capacity))
	}
	for {
		old := p.head.Load()
		oldIdxPlus1 := uint32(old)
		if oldIdxPlus1 == 0 {
			p.next[i].Store(-1)
		} else {
			p.next[i].Store(int32(oldIdxPlus1) - 1)
		}
		tag := uint32(old>>32) + 1
		if p.head.CompareAndSwap(old, pack(tag, uint32(i)+1)) {
			return
		}
	}
}

// InUse returns the number of live blocks.
func (p *BlockPool) InUse() int64 { return p.inUse.Load() }

// HeapFallbacks returns how many allocations overflowed to the heap.
func (p *BlockPool) HeapFallbacks() int64 { return p.heapFalls.Load() }

// BlockSize returns the fixed block size in bytes.
func (p *BlockPool) BlockSize() int { return p.blockSize }

// Capacity returns the number of pooled blocks.
func (p *BlockPool) Capacity() int { return p.capacity }

// String implements fmt.Stringer.
func (p *BlockPool) String() string {
	return fmt.Sprintf("blockpool{%dB x %d, inuse=%d, fallbacks=%d}",
		p.blockSize, p.capacity, p.InUse(), p.HeapFallbacks())
}
