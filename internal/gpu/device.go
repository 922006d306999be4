// Package gpu simulates the accelerator found on each Titan node: an
// NVIDIA K20X-class device with capacity-limited global memory, two DMA
// copy engines, streams, and support for concurrent kernels.
//
// The Go ecosystem has no CUDA; this package is the substitution. It
// enforces the two device properties the paper's GPU DataWarehouse work
// is about:
//
//  1. Capacity: 6 GB of global memory vs 32 GB host-side. Allocations
//     beyond capacity fail with ErrOutOfMemory — replicating the coarse
//     radiation mesh per patch simply does not fit, which is what forced
//     the shared per-level database.
//  2. Concurrency: operations issued on different streams overlap; the
//     two copy engines allow simultaneous host-to-device and
//     device-to-host transfers while kernels execute ("data for these
//     GPU tasks can be simultaneously copied to-and-from the device as
//     multiple RMCRT kernels run simultaneously").
//
// Time is simulated: every operation advances per-resource clocks using
// a cost model with the published K20X/PCIe parameters, while kernel
// bodies (plain Go functions) really execute so results are real. The
// simulated makespan is what the scaling studies consume.
package gpu

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// ErrOutOfMemory is returned by Alloc when the device's global memory is
// exhausted — the K20X 6 GB wall the paper ran into.
var ErrOutOfMemory = errors.New("gpu: device global memory exhausted")

// CostModel prices simulated operations. Zero fields mean "free", which
// is occasionally useful in tests; NewK20X returns Titan's parameters.
type CostModel struct {
	// PCIeBandwidth is the sustained host<->device bandwidth in bytes/s.
	PCIeBandwidth float64
	// PCIeLatency is the fixed per-transfer setup cost in seconds.
	PCIeLatency float64
	// KernelLaunch is the fixed per-kernel launch overhead in seconds.
	KernelLaunch float64
	// Throughput is the device compute rate in "work units"/s; kernel
	// costs are given in work units (the RMCRT cost model uses
	// cell-steps of ray marching as the unit).
	Throughput float64
}

// K20XMemory is the usable global memory of a Tesla K20X in bytes (6 GB
// GDDR5 per the paper).
const K20XMemory = 6 << 30

// NewK20X returns the cost model used throughout the reproduction:
// PCIe 2.0 x16 effective bandwidth ~6 GB/s, ~10 µs transfer setup,
// ~5 µs kernel launch, and a calibratable compute throughput.
func NewK20X(throughput float64) CostModel {
	return CostModel{
		PCIeBandwidth: 6e9,
		PCIeLatency:   10e-6,
		KernelLaunch:  5e-6,
		Throughput:    throughput,
	}
}

// EventKind labels entries of the device timeline.
type EventKind int8

// Timeline event kinds.
const (
	EventH2D EventKind = iota
	EventD2H
	EventKernel
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventH2D:
		return "h2d"
	case EventD2H:
		return "d2h"
	case EventKernel:
		return "kernel"
	default:
		return fmt.Sprintf("event(%d)", int8(k))
	}
}

// Event is one completed operation on the simulated timeline.
type Event struct {
	Kind       EventKind
	Stream     int
	Start, End float64
	Bytes      int64
	Label      string
}

// Device is one simulated GPU. All methods are safe for concurrent use;
// Uintah issues work from many scheduler threads at once.
type Device struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	peakUsed int64
	model    CostModel

	copyEngines []float64 // availableAt per DMA engine
	compute     float64   // availableAt of the SM array (kernels serialize, copies overlap)
	nextStream  int

	events []Event
	record bool
}

// NewDevice creates a device with the given memory capacity (bytes) and
// cost model. Two copy engines, as on the K20X.
func NewDevice(capacity int64, model CostModel) *Device {
	return &Device{
		capacity:    capacity,
		model:       model,
		copyEngines: make([]float64, 2),
	}
}

// SetRecording enables (or disables) the event timeline, which tests and
// the repro leveldb experiment inspect.
func (d *Device) SetRecording(on bool) {
	d.mu.Lock()
	d.record = on
	d.mu.Unlock()
}

// Events returns a copy of the recorded timeline sorted by start time.
func (d *Device) Events() []Event {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := append([]Event(nil), d.events...)
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Capacity returns the device's total global memory in bytes.
func (d *Device) Capacity() int64 { return d.capacity }

// Used returns the currently allocated bytes.
func (d *Device) Used() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.used
}

// PeakUsed returns the allocation high-water mark.
func (d *Device) PeakUsed() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.peakUsed
}

// Buffer is a device-memory allocation. Data really exists (host-side)
// so kernels can operate on it; what the Device enforces is the
// capacity accounting.
type Buffer struct {
	dev  *Device
	size int64
	// Data is the buffer's backing storage as float64s (the dominant
	// payload type in RMCRT); byte-odd sizes round up.
	Data []float64

	freed bool
}

// Size returns the buffer's size in bytes.
func (b *Buffer) Size() int64 { return b.size }

// Alloc claims size bytes of device memory. It fails with
// ErrOutOfMemory when the device is full — callers (the GPU
// DataWarehouse) must handle this, not mask it.
func (d *Device) Alloc(size int64) (*Buffer, error) {
	if size < 0 {
		return nil, fmt.Errorf("gpu: negative allocation %d", size)
	}
	d.mu.Lock()
	if d.used+size > d.capacity {
		d.mu.Unlock()
		return nil, fmt.Errorf("%w: want %d, used %d of %d",
			ErrOutOfMemory, size, d.used, d.capacity)
	}
	d.used += size
	if d.used > d.peakUsed {
		d.peakUsed = d.used
	}
	d.mu.Unlock()
	return &Buffer{dev: d, size: size, Data: make([]float64, (size+7)/8)}, nil
}

// Free releases a buffer. Double frees panic: they are accounting bugs.
func (d *Device) Free(b *Buffer) {
	if b == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if b.freed {
		panic("gpu: double free of device buffer")
	}
	b.freed = true
	d.used -= b.size
	b.Data = nil
}

// Stream is an in-order queue of device operations, the CUDA stream
// analogue. Operations on one stream serialize; operations on different
// streams overlap subject to engine availability. Streams are not safe
// for concurrent use (as in CUDA); create one per task.
type Stream struct {
	dev     *Device
	id      int
	readyAt float64
}

// NewStream creates an independent stream.
func (d *Device) NewStream() *Stream {
	d.mu.Lock()
	id := d.nextStream
	d.nextStream++
	d.mu.Unlock()
	return &Stream{dev: d, id: id}
}

// ID returns the stream's identifier.
func (s *Stream) ID() int { return s.id }

// ReadyAt returns the simulated time at which all work queued on the
// stream so far completes.
func (s *Stream) ReadyAt() float64 { return s.readyAt }

// transfer schedules a DMA of n bytes on the least-busy copy engine.
func (s *Stream) transfer(kind EventKind, n int64, label string) float64 {
	d := s.dev
	d.mu.Lock()
	// Least-busy engine — the K20X has two, one typically servicing H2D
	// and the other D2H.
	e := 0
	for i := range d.copyEngines {
		if d.copyEngines[i] < d.copyEngines[e] {
			e = i
		}
	}
	start := s.readyAt
	if d.copyEngines[e] > start {
		start = d.copyEngines[e]
	}
	dur := d.model.PCIeLatency
	if d.model.PCIeBandwidth > 0 {
		dur += float64(n) / d.model.PCIeBandwidth
	}
	end := start + dur
	d.copyEngines[e] = end
	s.readyAt = end
	if d.record {
		d.events = append(d.events, Event{Kind: kind, Stream: s.id, Start: start, End: end, Bytes: n, Label: label})
	}
	d.mu.Unlock()
	return end
}

// H2D queues a host-to-device copy of n bytes and returns its simulated
// completion time.
func (s *Stream) H2D(n int64, label string) float64 { return s.transfer(EventH2D, n, label) }

// D2H queues a device-to-host copy of n bytes and returns its simulated
// completion time.
func (s *Stream) D2H(n int64, label string) float64 { return s.transfer(EventD2H, n, label) }

// Launch queues a kernel costing work units and executes body (if
// non-nil) immediately on the calling goroutine — the results are real,
// the timing is simulated. It returns the kernel's simulated completion
// time.
func (s *Stream) Launch(work float64, label string, body func()) float64 {
	d := s.dev
	d.mu.Lock()
	start := s.readyAt
	if d.compute > start {
		start = d.compute
	}
	dur := d.model.KernelLaunch
	if d.model.Throughput > 0 {
		dur += work / d.model.Throughput
	}
	end := start + dur
	d.compute = end
	s.readyAt = end
	if d.record {
		d.events = append(d.events, Event{Kind: EventKernel, Stream: s.id, Start: start, End: end, Label: label})
	}
	d.mu.Unlock()
	if body != nil {
		body()
	}
	return end
}

// Makespan returns the simulated time at which every queued operation on
// every engine has completed.
func (d *Device) Makespan() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	m := d.compute
	for _, e := range d.copyEngines {
		if e > m {
			m = e
		}
	}
	return m
}

// ResetTimeline zeroes the simulated clocks and clears recorded events,
// keeping allocations. Each simulated timestep starts from a fresh
// timeline.
func (d *Device) ResetTimeline() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.compute = 0
	for i := range d.copyEngines {
		d.copyEngines[i] = 0
	}
	d.events = d.events[:0]
}
