package mathutil

import "math"

// RNG is a small, fast, deterministic pseudo-random generator built on
// splitmix64 seeding and xoshiro256**-style mixing. It is *counter-based
// friendly*: NewStream derives statistically independent streams from a
// (seed, id) pair, which RMCRT uses to give every (cell, ray) its own
// reproducible stream independent of goroutine scheduling.
//
// The zero RNG is valid and behaves as NewRNG(0).
type RNG struct {
	s0, s1, s2, s3 uint64
	init           bool
}

// splitmix64 advances *x and returns the next splitmix64 output. It is the
// standard generator recommended for seeding xoshiro state.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator seeded from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// NewStream returns a generator for stream id under seed. Distinct
// (seed, id) pairs yield independent sequences; identical pairs yield
// identical sequences. This is the reproducibility contract RMCRT's
// per-cell ray sampling relies on.
func NewStream(seed, id uint64) *RNG {
	r := &RNG{}
	r.SeedStream(seed, id)
	return r
}

// SeedStream resets r in place to the start of stream id under seed —
// the exact state NewStream(seed, id) would return, without the
// allocation, so hot loops can reuse one generator across many streams.
func (r *RNG) SeedStream(seed, id uint64) {
	x := seed ^ (id * 0x9e3779b97f4a7c15)
	r.s0 = splitmix64(&x)
	r.s1 = splitmix64(&x)
	r.s2 = splitmix64(&x)
	r.s3 = splitmix64(&x)
	r.init = true
}

// Seed resets the generator state from seed.
func (r *RNG) Seed(seed uint64) {
	x := seed
	r.s0 = splitmix64(&x)
	r.s1 = splitmix64(&x)
	r.s2 = splitmix64(&x)
	r.s3 = splitmix64(&x)
	r.init = true
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	if !r.init {
		r.Seed(0)
	}
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("mathutil: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// UnitSphere returns an isotropically distributed unit direction. RMCRT
// samples ray directions from the full 4π solid angle with this.
func (r *RNG) UnitSphere() Vec3 {
	// Marsaglia-free direct sampling: cosθ uniform in [-1,1], φ uniform.
	cosTheta := 2*r.Float64() - 1
	sinTheta := math.Sqrt(1 - cosTheta*cosTheta)
	sinPhi, cosPhi := math.Sincos(2 * math.Pi * r.Float64())
	return Vec3{sinTheta * cosPhi, sinTheta * sinPhi, cosTheta}
}

// CosineHemisphere returns a direction distributed proportional to cosθ
// around the +normal axis — the correct emission distribution from a
// diffuse (Lambertian) boundary surface.
func (r *RNG) CosineHemisphere(normal Vec3) Vec3 {
	// Sample on the hemisphere around +Z, then rotate +Z onto normal.
	u1, u2 := r.Float64(), r.Float64()
	sinTheta := math.Sqrt(u1)
	cosTheta := math.Sqrt(1 - u1)
	sinPhi, cosPhi := math.Sincos(2 * math.Pi * u2)
	local := Vec3{sinTheta * cosPhi, sinTheta * sinPhi, cosTheta}
	return rotateZTo(local, normal)
}

// rotateZTo rotates vector v from the frame whose +Z axis is (0,0,1) into
// the frame whose +Z axis is n (assumed unit length).
func rotateZTo(v, n Vec3) Vec3 {
	if n.Z > 0.9999999 {
		return v
	}
	if n.Z < -0.9999999 {
		return Vec3{v.X, -v.Y, -v.Z}
	}
	// Build an orthonormal basis (t, b, n).
	t := Vec3{0, 0, 1}.Cross(n).Normalized()
	b := n.Cross(t)
	return t.Scale(v.X).Add(b.Scale(v.Y)).Add(n.Scale(v.Z))
}

// Halton returns the i-th element (i >= 0) of the Halton low-discrepancy
// sequence in the given prime base. RMCRT can optionally stratify ray
// origins inside a cell with Halton points to cut variance.
func Halton(i int, base int) float64 {
	f := 1.0
	r := 0.0
	for i > 0 {
		f /= float64(base)
		r += f * float64(i%base)
		i /= base
	}
	return r
}
