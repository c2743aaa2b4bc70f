package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/array"
	"repro/internal/partition"
	"repro/internal/stats"
)

// AISConfig sizes the synthetic ship-tracking workload. Zero values select
// defaults that scale the paper's 400 GB / 3-year study down to megabytes
// while preserving the extreme port skew (≈85% of the data in ≈5% of the
// chunks) and the seasonal insert pattern.
type AISConfig struct {
	// Cycles is the number of monthly insert cycles (default 12).
	Cycles int
	// LonStride and LatStride are chunk intervals in degrees (paper: 4;
	// default here 8 to keep the grid modest).
	LonStride, LatStride int64
	// CellsPerCycle is the mean number of broadcasts per cycle before
	// the seasonal factor.
	CellsPerCycle int
	// Vessels is the fleet size for the replicated vessel array.
	Vessels int
	// Seed drives all randomness.
	Seed int64
}

func (c *AISConfig) defaults() {
	if c.Cycles == 0 {
		c.Cycles = 12
	}
	if c.LonStride == 0 {
		c.LonStride = 8
	}
	if c.LatStride == 0 {
		c.LatStride = 8
	}
	if c.CellsPerCycle == 0 {
		c.CellsPerCycle = 6000
	}
	if c.Vessels == 0 {
		c.Vessels = 1500
	}
	if c.Seed == 0 {
		c.Seed = 43200 // the broadcast array's time stride
	}
}

// minutesPer30Days is the Broadcast array's time chunk interval.
const minutesPer30Days = 43200

// AIS generates the marine-vessel workload of Section 3.2: a 3-D Broadcast
// array (time × longitude × latitude) whose cell mass is Zipf-concentrated
// on a handful of port chunks, a small replicated Vessel array, monthly
// inserts whose volume swings seasonally (peaking around the holidays), and
// ship identities skewed so a few vessels broadcast most.
type AIS struct {
	cfg       AISConfig
	broadcast *array.Schema
	vessel    *array.Schema
	// ports are the hot chunk columns (x, y) in chunk-grid coordinates.
	ports [][2]int64
}

// NewAIS builds the generator.
func NewAIS(cfg AISConfig) (*AIS, error) {
	cfg.defaults()
	if cfg.Cycles < 1 {
		return nil, fmt.Errorf("workload: AIS needs at least one cycle")
	}
	if cfg.LonStride < 1 || cfg.LatStride < 1 || cfg.CellsPerCycle < 1 || cfg.Vessels < 1 {
		return nil, fmt.Errorf("workload: AIS config values must be positive")
	}
	broadcast, err := array.NewSchema("Broadcast",
		[]array.Attribute{
			{Name: "speed", Type: array.Int32},
			{Name: "course", Type: array.Int32},
			{Name: "heading", Type: array.Int32},
			{Name: "rot", Type: array.Int32},
			{Name: "status", Type: array.Int32},
			{Name: "voyage_id", Type: array.Int32},
			{Name: "ship_id", Type: array.Int32},
			{Name: "receiver_type", Type: array.Char},
			{Name: "receiver_id", Type: array.String},
			{Name: "provenance", Type: array.String},
		},
		[]array.Dimension{
			{Name: "time", Start: 0, End: array.Unbounded, ChunkInterval: minutesPer30Days},
			{Name: "longitude", Start: -180, End: -66, ChunkInterval: cfg.LonStride},
			{Name: "latitude", Start: 0, End: 90, ChunkInterval: cfg.LatStride},
		})
	if err != nil {
		return nil, err
	}
	vessel, err := array.NewSchema("Vessel",
		[]array.Attribute{
			{Name: "ship_type", Type: array.Int32},
			{Name: "length", Type: array.Int32},
			{Name: "width", Type: array.Int32},
			{Name: "hazmat", Type: array.Bool},
		},
		[]array.Dimension{
			{Name: "vessel_id", Start: 0, End: int64(cfg.Vessels) - 1, ChunkInterval: int64(cfg.Vessels)},
		})
	if err != nil {
		return nil, err
	}
	a := &AIS{cfg: cfg, broadcast: broadcast, vessel: vessel}
	// Pick ~5% of the spatial grid as port chunks, clustered on the
	// coasts (low longitude-chunk indexes ≈ the US eastern seaboard and
	// gulf in the real data).
	lonChunks := broadcast.Dims[1].NumChunks()
	latChunks := broadcast.Dims[2].NumChunks()
	nPorts := int(math.Max(2, math.Round(float64(lonChunks*latChunks)*0.05)))
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x0a15))
	seen := make(map[[2]int64]bool)
	for len(a.ports) < nPorts {
		x := rng.Int63n(lonChunks)
		y := rng.Int63n(latChunks / 2) // ports in the lower latitudes
		key := [2]int64{x, y}
		if seen[key] {
			continue
		}
		seen[key] = true
		a.ports = append(a.ports, [2]int64{x, y})
	}
	return a, nil
}

// Name implements Generator.
func (a *AIS) Name() string { return "AIS" }

// Schemas implements Generator (the partitioned Broadcast array only; the
// vessel array is replicated).
func (a *AIS) Schemas() []*array.Schema { return []*array.Schema{a.broadcast} }

// Cycles implements Generator.
func (a *AIS) Cycles() int { return a.cfg.Cycles }

// Geometry implements Generator: longitude and latitude are the spatial
// dimensions; time is the growth axis.
func (a *AIS) Geometry() partition.Geometry {
	return partition.Geometry{
		Extents: []int64{
			int64(a.cfg.Cycles),
			a.broadcast.Dims[1].NumChunks(),
			a.broadcast.Dims[2].NumChunks(),
		},
		SpatialDims: []int{1, 2},
	}
}

// SeasonalFactor scales cycle volume: commercial shipping peaks around the
// holidays (paper §3.4), modelled as a sinusoid with a December bump.
func (a *AIS) SeasonalFactor(cycle int) float64 {
	phase := 2 * math.Pi * float64(cycle) / 12
	f := 1 + 0.30*math.Sin(phase-math.Pi/2)
	if cycle%12 == 10 || cycle%12 == 11 {
		f += 0.25 // holiday surge
	}
	return f
}

// Replicated implements Generator: the Vessel dimension table, replicated
// over all cluster nodes (25 MB in the paper, a single chunk here).
func (a *AIS) Replicated() (*array.Schema, []*array.Chunk) {
	ch := array.NewChunk(a.vessel, array.ChunkCoord{0})
	rng := rand.New(rand.NewSource(a.cfg.Seed ^ 0xfee7))
	for id := 0; id < a.cfg.Vessels; id++ {
		haz := int64(0)
		if rng.Float64() < 0.08 {
			haz = 1
		}
		ch.AppendCell(array.Coord{int64(id)}, []array.CellValue{
			{Int: int64(rng.Intn(8))},        // ship_type
			{Int: int64(20 + rng.Intn(380))}, // length
			{Int: int64(5 + rng.Intn(55))},   // width
			{Int: haz},                       // hazmat
		})
	}
	return a.vessel, []*array.Chunk{ch}
}

// Batch implements Generator: one 30-day slab of broadcasts. The spatial
// distribution sends ≈85% of the cells to the port chunks (Zipf-weighted
// among them) and scatters the rest; ship identities are Zipf-skewed too.
func (a *AIS) Batch(cycle int) ([]*array.Chunk, error) {
	if err := validateCycle(a, cycle); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(mixSeed(a.cfg.Seed, int64(cycle), 0x0b0a7)))
	total := int(float64(a.cfg.CellsPerCycle) * a.SeasonalFactor(cycle))
	portZipf := stats.MustZipf(rng, len(a.ports), 1.1)
	shipZipf := stats.MustZipf(rng, a.cfg.Vessels, 1.05)
	lonChunks := a.broadcast.Dims[1].NumChunks()
	latChunks := a.broadcast.Dims[2].NumChunks()

	chunks := make(map[array.CoordKey]*array.Chunk)
	chunkFor := func(x, y int64) *array.Chunk {
		cc := array.ChunkCoord{int64(cycle), x, y}
		key := cc.Packed()
		ch, ok := chunks[key]
		if !ok {
			ch = array.NewChunkCap(a.broadcast, cc, 64)
			chunks[key] = ch
		}
		return ch
	}
	for i := 0; i < total; i++ {
		var x, y int64
		if rng.Float64() < 0.85 {
			p := a.ports[portZipf.Next()]
			x, y = p[0], p[1]
		} else {
			x, y = rng.Int63n(lonChunks), rng.Int63n(latChunks)
		}
		ch := chunkFor(x, y)
		lo, hi := a.broadcast.ChunkBounds(ch.Coords)
		cell := array.Coord{
			lo[0] + rng.Int63n(hi[0]-lo[0]+1),
			lo[1] + rng.Int63n(hi[1]-lo[1]+1),
			lo[2] + rng.Int63n(hi[2]-lo[2]+1),
		}
		ship := shipZipf.Next()
		speed := int64(rng.Intn(25))
		if rng.Float64() < 0.3 {
			speed = 0 // in port
		}
		ch.AppendCell(cell, []array.CellValue{
			{Int: speed},
			{Int: int64(rng.Intn(360))},                // course
			{Int: int64(rng.Intn(360))},                // heading
			{Int: int64(rng.Intn(21) - 10)},            // rot
			{Int: int64(rng.Intn(5))},                  // status
			{Int: int64(rng.Intn(4000))},               // voyage_id
			{Int: int64(ship)},                         // ship_id
			{Int: int64('S')},                          // receiver_type
			{Str: fmt.Sprintf("R%03d", rng.Intn(240))}, // receiver_id
			{Str: "uscg"},                              // provenance
		})
	}
	// Deterministic output order.
	keys := make([]array.CoordKey, 0, len(chunks))
	for k := range chunks {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
	out := make([]*array.Chunk, 0, len(keys))
	for _, k := range keys {
		out = append(out, chunks[k])
	}
	return out, nil
}
