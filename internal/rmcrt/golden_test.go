package rmcrt

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"github.com/uintah-repro/rmcrt/internal/field"
	"github.com/uintah-repro/rmcrt/internal/grid"
	"github.com/uintah-repro/rmcrt/internal/mathutil"
)

// Golden output hashes: the bitwise reference for everything the frozen
// seed engine (seedref_test.go) cannot check — adaptive budgets, fused
// spectral bands, wall flux maps, radiometers, and single rays that
// reflect after a level drop (the seed lacks the restart-cell fix, see
// tracer.go). Each row hashes the IEEE bits of every float64 the solve
// returns; a kernel refactor must leave every hash unchanged. Update a
// hash only for a deliberate change of the numbers, and say why in the
// commit.

// hashFloats returns the hex SHA-256 of xs' little-endian IEEE bits.
func hashFloats(xs []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenDomain builds one of the table's domains: a 1-level 12³
// benchmark, or the first fine patch of a 2-level (16³ fine, rr 2) or
// 3-level (16³/8³/4³) benchmark. The multi-level fine ROIs use an odd
// halo, so the fine ROI face straddles coarse cells and level drops land
// strictly inside them.
func goldenDomain(t *testing.T, levels int) (*Domain, grid.Box) {
	t.Helper()
	if levels == 1 {
		d, _, err := NewBenchmarkDomain(12)
		if err != nil {
			t.Fatal(err)
		}
		return d, d.finest().ROI
	}
	var g *grid.Grid
	var mk func(p *grid.Patch) (*Domain, error)
	var err error
	if levels == 2 {
		g, mk, err = NewMultiLevelBenchmark(16, 8, 2, 1)
	} else {
		g, mk, err = NewThreeLevelBenchmark(16, 8, 2, 1, 1)
	}
	if err != nil {
		t.Fatal(err)
	}
	p := g.Levels[levels-1].Patches[0]
	d, err := mk(p)
	if err != nil {
		t.Fatal(err)
	}
	return d, p.Cells
}

// addIntrusion marks every cell (on every level) whose center lies in
// a fixed physical box as opaque. The box straddles the multi-level
// fine ROI face at x = 9/16, so rays drop onto opaque coarse cells.
func addIntrusion(d *Domain) {
	lo, hi := mathutil.V3(0.5, 0.1, 0.2), mathutil.V3(0.75, 0.4, 0.45)
	for i := range d.Levels {
		ld := &d.Levels[i]
		ld.Level.IndexBox().ForEach(func(c grid.IntVector) {
			p := ld.Level.CellCenter(c)
			if p.X >= lo.X && p.X < hi.X && p.Y >= lo.Y && p.Y < hi.Y && p.Z >= lo.Z && p.Z < hi.Z {
				ld.CellType.Set(c, field.Intrusion)
			}
		})
	}
}

// greyReflecting sets grey, warm, specularly reflecting walls.
func greyReflecting(o *Options) {
	o.WallEmissivity = 0.6
	o.WallSigmaT4 = 0.5
	o.Reflections = true
}

// fourBand wraps d as a 4-band spectral domain whose band absorption
// fields are fixed multiples of the gray field.
func fourBand(d *Domain) *SpectralDomain {
	scales := []float64{0.25, 1, 3, 0.05}
	fracs := []float64{0.1, 0.2, 0.3, 0.4}
	lb := make([][]Band, len(d.Levels))
	for li := range d.Levels {
		src := d.Levels[li].Abskg
		for k, s := range scales {
			f := field.NewCC[float64](src.Box())
			for i, v := range src.Data() {
				f.Data()[i] = s * v
			}
			lb[li] = append(lb[li], Band{Name: "b" + itoa(k), Abskg: f, EmissiveFraction: fracs[k]})
		}
	}
	return &SpectralDomain{Base: d, LevelBands: lb}
}

// traceTable traces a seeded table of single rays from random points in
// region and returns each ray's sumI followed by its step count.
func traceTable(d *Domain, region grid.Box, opts *Options) []float64 {
	lvl := d.finest().Level
	lo, hi := lvl.CellLo(region.Lo), lvl.CellLo(region.Hi)
	rng := mathutil.NewStream(99, 7)
	var out []float64
	for i := 0; i < 48; i++ {
		origin := mathutil.Vec3{
			X: lo.X + rng.Float64()*(hi.X-lo.X),
			Y: lo.Y + rng.Float64()*(hi.Y-lo.Y),
			Z: lo.Z + rng.Float64()*(hi.Z-lo.Z),
		}
		dir := rng.UnitSphere()
		before := d.Steps.Load()
		sumI := d.TraceRay(origin, dir, rng, opts)
		out = append(out, sumI, float64(d.Steps.Load()-before))
	}
	return out
}

var goldenHashes = map[string]string{
	"adaptive/1L":                    "5b2cef4bac7b44b60eed8043ac46dc47f566e7278809a98b1cdf10aa3c68aebb",
	"adaptive-scatter/1L":            "290b4226b12eca525435f96bc492c92ab91f2f8245780524c10ec946c1d2f132",
	"adaptive/2L":                    "95f4dd19838af92831e959af4d3a74c999c71ffacfd418021596c95d83323c7c",
	"adaptive-scatter/2L":            "252e9d607fda054eb77861d41ff8e3b9e78f1e604d747ce0df2980f73622f805",
	"region-intrusion-reflect/3L":    "1218fa18c7ecc07f8282f01fa42347e3b83d6bd7f4432af771456017d3e3f8b9",
	"spectral4/2L-black":             "3d8dedbfce4fded4a57d1d8d6d76a795f75ae54de6b41565a3ab176759d0ff4f",
	"spectral4/2L-intrusion-reflect": "77a140f4ac56fdd0653069a63654e346e5a8f27d4318c09363a63c8402caf49b",
	"wallfluxmap/1L":                 "0a4fa6a04bb48d82e25f494aeab4f6dfb4b8c4dad13cadcfacd78c3846562c5f",
	"radiometer/1L":                  "105ee7ad99d8312b277b9fb021a34f6c629c2a2d39d957539434614f13e7b459",
	"radiometer/2L":                  "516f0105cbccc89b21ab6cff3ced90d06232783486ff3f77fdc83361da8b19d2",
	"traceray/1L-black":              "0b30bca156c4ebdfe5fadfb83fc69af13b0bf347c473c06699d81d604e1cfe8e",
	"traceray/1L-grey-reflecting":    "376be214d6361a18d83dac448ff6fa93cf9b7520ee3dbc349e50b13b6db8b2d2",
	"traceray/1L-scattering":         "b16a426862f194c8f77e53dfc377e68ded53c12dd67d69123066a27a648781fb",
	"traceray/1L-intrusion":          "fa1f28518b148322de34fb556a46c7c7a36f0384a04daddbf6c0bc6973748aa2",
	"traceray/2L-black":              "b52b8308ed4dcac2b2cbefe61b41d2c642318d57e7c56a8b944ceac8f3068ea7",
	"traceray/2L-grey-reflecting":    "cbeb3e92833cfe417870b58c9e545580d74296b0331403cf7134cf90fa6ef3e0",
	"traceray/2L-scattering":         "1edbba3f69b2189baf5758f4b37a633fb2a48ba826fd3f9243f7643cc6f48d09",
	"traceray/2L-intrusion":          "980bd57c9532824adc41e504b8425c9aea67d266400beb3dd727c219c5f65ddc",
	"traceray/3L-black":              "b596a8f88b7c0d30239b2103dd52432ae800c483d1151fa37624d66bcd4d9f24",
	"traceray/3L-grey-reflecting":    "889f75d7a70eb96d71b62eec0c72fc9c8998c1cac98c38af2301831d7cbf2bba",
	"traceray/3L-scattering":         "2fe708c7b9c2664821ae28ea81212ac2ba88656442a8b5055dcd4e1e349e191a",
	"traceray/3L-intrusion":          "0c3dafdc9708364b716e67b9739b58f3297fcbf5bedec71b31411061aa71e234",
}

func TestGoldenHashes(t *testing.T) {
	type row struct {
		name string
		run  func(t *testing.T) []float64
	}
	var rows []row
	solve := func(levels int, mod func(*Options)) func(t *testing.T) []float64 {
		return func(t *testing.T) []float64 {
			d, region := goldenDomain(t, levels)
			opts := DefaultOptions()
			opts.NRays = 32
			mod(&opts)
			out, err := d.SolveRegion(region, &opts)
			if err != nil {
				t.Fatal(err)
			}
			return out.Data()
		}
	}
	adaptive := func(o *Options) {
		o.AdaptiveRelTol = 0.05
		o.AdaptiveMinRays = 4
		o.AdaptiveMaxRays = 32
	}
	for _, lv := range []int{1, 2} {
		tag := "/" + itoa(lv) + "L"
		rows = append(rows,
			row{"adaptive" + tag, solve(lv, adaptive)},
			row{"adaptive-scatter" + tag, solve(lv, func(o *Options) { adaptive(o); o.ScatterCoeff = 0.5 })},
		)
	}
	rows = append(rows, row{"region-intrusion-reflect/3L", func(t *testing.T) []float64 {
		d, region := goldenDomain(t, 3)
		addIntrusion(d)
		opts := DefaultOptions()
		opts.NRays = 4
		greyReflecting(&opts)
		out, err := d.SolveRegion(region, &opts)
		if err != nil {
			t.Fatal(err)
		}
		return out.Data()
	}})
	for _, reflect := range []bool{false, true} {
		name := "spectral4/2L-black"
		if reflect {
			name = "spectral4/2L-intrusion-reflect"
		}
		rows = append(rows, row{name, func(t *testing.T) []float64 {
			d, region := goldenDomain(t, 2)
			opts := DefaultOptions()
			opts.NRays = 8
			if reflect {
				addIntrusion(d)
				greyReflecting(&opts)
			}
			out, err := fourBand(d).SolveRegionSpectral(region, &opts)
			if err != nil {
				t.Fatal(err)
			}
			return out.Data()
		}})
	}
	scatterGrey := func() Options {
		opts := DefaultOptions()
		opts.NRays = 8
		opts.ScatterCoeff = 0.5
		greyReflecting(&opts)
		return opts
	}
	rows = append(rows,
		row{"wallfluxmap/1L", func(t *testing.T) []float64 {
			d, _ := goldenDomain(t, 1)
			opts := scatterGrey()
			var out []float64
			for _, face := range []WallFace{XMinus, ZPlus} {
				fm, err := d.SolveWallFluxMap(face, &opts)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, fm.Q...)
			}
			q, err := d.SolveWallFlux(YPlus, &opts)
			if err != nil {
				t.Fatal(err)
			}
			return append(out, q)
		}},
	)
	for _, lv := range []int{1, 2} {
		rows = append(rows, row{"radiometer/" + itoa(lv) + "L", func(t *testing.T) []float64 {
			d, _ := goldenDomain(t, lv)
			opts := scatterGrey()
			opts.NRays = 200
			r := Radiometer{Pos: mathutil.V3(0.25, 0.3, 0.35), Dir: mathutil.V3(1, 0.3, -0.2).Normalized(), HalfAngle: 0.4}
			rd, err := d.SolveRadiometer(r, &opts)
			if err != nil {
				t.Fatal(err)
			}
			return []float64{rd.MeanIntensity, rd.Flux}
		}})
	}
	configs := []struct {
		name string
		mod  func(d *Domain, o *Options)
	}{
		{"black", func(*Domain, *Options) {}},
		{"grey-reflecting", func(_ *Domain, o *Options) { greyReflecting(o) }},
		{"scattering", func(_ *Domain, o *Options) { o.ScatterCoeff = 0.5 }},
		{"intrusion", func(d *Domain, o *Options) { addIntrusion(d); greyReflecting(o) }},
	}
	for _, lv := range []int{1, 2, 3} {
		for _, cfg := range configs {
			rows = append(rows, row{"traceray/" + itoa(lv) + "L-" + cfg.name, func(t *testing.T) []float64 {
				d, region := goldenDomain(t, lv)
				opts := DefaultOptions()
				cfg.mod(d, &opts)
				return traceTable(d, region, &opts)
			}})
		}
	}

	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			got := hashFloats(r.run(t))
			if want := goldenHashes[r.name]; got != want {
				t.Errorf("output hash %s, want %s", got, want)
			}
		})
	}
}
