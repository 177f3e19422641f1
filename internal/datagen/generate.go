package datagen

import (
	"context"
	"fmt"
	"math/rand"

	"autostats/internal/catalog"
	"autostats/internal/storage"
)

// Config controls database generation.
type Config struct {
	// Scale multiplies the base row counts. Scale 1.0 yields a ~8.7k-row
	// database (lineitem 6000 rows) preserving TPC-D's table-size ratios
	// (1/1000 of SF=1). Experiments report ratios, which are scale-robust.
	Scale float64
	// Z is the Zipfian skew parameter applied to every non-key column,
	// between 0 (uniform) and 4 (highly skewed). Ignored when Mix is set.
	Z float64
	// Mix assigns each column an independent random z in [0, 4] — the
	// paper's TPCD_MIX database.
	Mix bool
	// Seed makes generation deterministic.
	Seed int64
}

// ConfigByName resolves the paper's database names used throughout §8 to
// configurations: TPCD_0 is uniform (z = 0), TPCD_2 moderately skewed,
// TPCD_4 highly skewed, and TPCD_MIX assigns each column a random skew in
// [0, 4].
func ConfigByName(name string) (Config, error) {
	switch name {
	case "TPCD_0":
		return Config{Scale: 1, Z: 0, Seed: 42}, nil
	case "TPCD_2":
		return Config{Scale: 1, Z: 2, Seed: 42}, nil
	case "TPCD_4":
		return Config{Scale: 1, Z: 4, Seed: 42}, nil
	case "TPCD_MIX":
		return Config{Scale: 1, Mix: true, Seed: 42}, nil
	default:
		return Config{}, fmt.Errorf("datagen: unknown database name %q", name)
	}
}

// DatabaseNames lists the four §8 databases in presentation order.
func DatabaseNames() []string { return []string{"TPCD_0", "TPCD_2", "TPCD_4", "TPCD_MIX"} }

// Base row counts at Scale = 1 (TPC-D SF=1 divided by 1000).
const (
	baseSupplier = 10
	baseCustomer = 150
	basePart     = 200
	basePartSupp = 800
	baseOrders   = 1500
	baseLineItem = 6000

	// startDate is 1992-01-01 in days since the Unix epoch; the benchmark's
	// order dates span seven years from there.
	startDate = 8035
	dateSpan  = 2556
)

// gen bundles the RNG and skew policy during one generation run.
type gen struct {
	rng *rand.Rand
	cfg Config
}

// colZ picks the skew for the next column: the global Z, or a fresh random
// z in [0,4] in MIX mode.
func (g *gen) colZ() float64 {
	if g.cfg.Mix {
		return g.rng.Float64() * 4
	}
	return g.cfg.Z
}

// zipfInt returns a sampler producing Int datums over lo..lo+n-1.
func (g *gen) zipfInt(n int, lo int64) func() catalog.Datum {
	z := newZipf(g.rng, n, g.colZ())
	return func() catalog.Datum { return catalog.NewInt(lo + int64(z.next())) }
}

// zipfFloat returns a sampler over n evenly spaced floats in [lo, hi].
func (g *gen) zipfFloat(n int, lo, hi float64) func() catalog.Datum {
	z := newZipf(g.rng, n, g.colZ())
	step := (hi - lo) / float64(n)
	return func() catalog.Datum { return catalog.NewFloat(lo + float64(z.next())*step) }
}

// zipfChoice returns a sampler over a fixed string pool.
func (g *gen) zipfChoice(pool []string) func() catalog.Datum {
	z := newZipf(g.rng, len(pool), g.colZ())
	return func() catalog.Datum { return catalog.NewString(pool[z.next()]) }
}

// zipfLabel returns a sampler over n synthetic strings "prefix#00042".
func (g *gen) zipfLabel(prefix string, n int) func() catalog.Datum {
	z := newZipf(g.rng, n, g.colZ())
	return func() catalog.Datum {
		return catalog.NewString(fmt.Sprintf("%s#%06d", prefix, z.next()))
	}
}

// zipfDate returns a sampler over the benchmark date range.
func (g *gen) zipfDate() func() catalog.Datum {
	z := newZipf(g.rng, dateSpan, g.colZ())
	return func() catalog.Datum { return catalog.NewDate(startDate + int64(z.next())) }
}

var (
	regionNames  = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	nationNames  = []string{"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES"}
	segments     = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"}
	orderStatus  = []string{"F", "O", "P"}
	priorities   = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	shipModes    = []string{"AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"}
	shipInstruct = []string{"COLLECT COD", "DELIVER IN PERSON", "NONE", "TAKE BACK RETURN"}
	returnFlags  = []string{"A", "N", "R"}
	lineStatus   = []string{"F", "O"}
	mfgrs        = []string{"Manufacturer#1", "Manufacturer#2", "Manufacturer#3", "Manufacturer#4", "Manufacturer#5"}
	containers   = []string{"JUMBO BAG", "JUMBO BOX", "JUMBO CAN", "JUMBO CASE", "JUMBO DRUM", "JUMBO JAR", "JUMBO PACK", "JUMBO PKG", "LG BAG", "LG BOX", "LG CAN", "LG CASE", "LG DRUM", "LG JAR", "LG PACK", "LG PKG", "MED BAG", "MED BOX", "MED CAN", "MED CASE", "MED DRUM", "MED JAR", "MED PACK", "MED PKG", "SM BAG", "SM BOX", "SM CAN", "SM CASE", "SM DRUM", "SM JAR", "SM PACK", "SM PKG", "WRAP BAG", "WRAP BOX", "WRAP CAN", "WRAP CASE", "WRAP DRUM", "WRAP JAR", "WRAP PACK", "WRAP PKG"}
	partTypes    = buildPartTypes()
	brands       = buildBrands()
)

func buildPartTypes() []string {
	syl1 := []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
	syl2 := []string{"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"}
	syl3 := []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}
	var out []string
	for _, a := range syl1 {
		for _, b := range syl2 {
			for _, c := range syl3 {
				out = append(out, a+" "+b+" "+c)
			}
		}
	}
	return out
}

func buildBrands() []string {
	var out []string
	for i := 1; i <= 5; i++ {
		for j := 1; j <= 5; j++ {
			out = append(out, fmt.Sprintf("Brand#%d%d", i, j))
		}
	}
	return out
}

func scaled(base int, scale float64) int {
	n := int(float64(base) * scale)
	if n < 1 {
		n = 1
	}
	return n
}

// Generate builds a fully loaded skewed TPC-D database.
func Generate(cfg Config) (*storage.Database, error) {
	return GenerateCtx(context.Background(), cfg)
}

// GenerateCtx is Generate honoring cancellation: ctx is checked before each
// table and every 1024 generated rows, so an interrupted CLI returns
// promptly instead of finishing a large scale factor. The partially built
// in-memory database is simply discarded — nothing touches disk here.
func GenerateCtx(ctx context.Context, cfg Config) (*storage.Database, error) {
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	g := &gen{rng: rand.New(rand.NewSource(cfg.Seed)), cfg: cfg}
	schema := tpcdSchema()
	dbName := fmt.Sprintf("tpcd_z%.1f_s%.2f", cfg.Z, cfg.Scale)
	if cfg.Mix {
		dbName = fmt.Sprintf("tpcd_mix_s%.2f", cfg.Scale)
	}
	db, err := storage.NewDatabase(dbName, schema)
	if err != nil {
		return nil, err
	}

	nSupp := scaled(baseSupplier, cfg.Scale)
	nCust := scaled(baseCustomer, cfg.Scale)
	nPart := scaled(basePart, cfg.Scale)
	nPartSupp := scaled(basePartSupp, cfg.Scale)
	nOrders := scaled(baseOrders, cfg.Scale)
	nLine := scaled(baseLineItem, cfg.Scale)

	load := func(table string, n int, mkRow func(i int) storage.Row) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		rows := make([]storage.Row, n)
		for i := 0; i < n; i++ {
			if i&1023 == 1023 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			rows[i] = mkRow(i)
		}
		td, err := db.Table(table)
		if err != nil {
			return err
		}
		return td.BulkLoad(rows)
	}

	// region: fixed 5 rows.
	comment := g.zipfLabel("comment", 500)
	if err := load("region", len(regionNames), func(i int) storage.Row {
		return storage.Row{catalog.NewInt(int64(i)), catalog.NewString(regionNames[i]), comment()}
	}); err != nil {
		return nil, err
	}

	// nation: fixed 25 rows; region FK skewed.
	nRegion := g.zipfInt(len(regionNames), 0)
	comment = g.zipfLabel("comment", 500)
	if err := load("nation", len(nationNames), func(i int) storage.Row {
		return storage.Row{catalog.NewInt(int64(i)), catalog.NewString(nationNames[i]), nRegion(), comment()}
	}); err != nil {
		return nil, err
	}

	// supplier.
	sNation := g.zipfInt(len(nationNames), 0)
	sPhone := g.zipfLabel("phone", 1000)
	sBal := g.zipfFloat(2000, -999.99, 9999.99)
	sAddr := g.zipfLabel("addr", 1000)
	comment = g.zipfLabel("comment", 500)
	if err := load("supplier", nSupp, func(i int) storage.Row {
		return storage.Row{
			catalog.NewInt(int64(i)),
			catalog.NewString(fmt.Sprintf("Supplier#%06d", i)),
			sAddr(), sNation(), sPhone(), sBal(), comment(),
		}
	}); err != nil {
		return nil, err
	}

	// customer.
	cNation := g.zipfInt(len(nationNames), 0)
	cPhone := g.zipfLabel("phone", 1000)
	cBal := g.zipfFloat(2000, -999.99, 9999.99)
	cSeg := g.zipfChoice(segments)
	cAddr := g.zipfLabel("addr", 1000)
	comment = g.zipfLabel("comment", 500)
	if err := load("customer", nCust, func(i int) storage.Row {
		return storage.Row{
			catalog.NewInt(int64(i)),
			catalog.NewString(fmt.Sprintf("Customer#%06d", i)),
			cAddr(), cNation(), cPhone(), cBal(), cSeg(), comment(),
		}
	}); err != nil {
		return nil, err
	}

	// part.
	pMfgr := g.zipfChoice(mfgrs)
	pBrand := g.zipfChoice(brands)
	pType := g.zipfChoice(partTypes)
	pSize := g.zipfInt(50, 1)
	pContainer := g.zipfChoice(containers)
	pPrice := g.zipfFloat(1100, 900, 2000)
	comment = g.zipfLabel("comment", 500)
	if err := load("part", nPart, func(i int) storage.Row {
		return storage.Row{
			catalog.NewInt(int64(i)),
			catalog.NewString(fmt.Sprintf("Part#%06d", i)),
			pMfgr(), pBrand(), pType(), pSize(), pContainer(), pPrice(), comment(),
		}
	}); err != nil {
		return nil, err
	}

	// partsupp: as in TPC-D, each part is supplied by a few DISTINCT
	// suppliers, so (ps_partkey, ps_suppkey) pairs are unique. Suppliers are
	// still drawn from a skewed distribution; uniqueness is what keeps
	// composite-key joins from exploding combinatorially, exactly as in the
	// benchmark's data.
	suppPerPart := nPartSupp / nPart
	if suppPerPart < 1 {
		suppPerPart = 1
	}
	if suppPerPart > nSupp {
		suppPerPart = nSupp
	}
	nPartSupp = suppPerPart * nPart
	psSupp := newZipf(g.rng, nSupp, g.colZ())
	psQty := g.zipfInt(9999, 1)
	psCost := g.zipfFloat(1000, 1, 1000)
	comment = g.zipfLabel("comment", 500)
	psPairs := make([][2]int64, 0, nPartSupp)
	for p := 0; p < nPart; p++ {
		seen := make(map[int]bool, suppPerPart)
		for len(seen) < suppPerPart {
			s := psSupp.next()
			for attempts := 0; seen[s] && attempts < 8; attempts++ {
				s = psSupp.next()
			}
			if seen[s] {
				// Skewed draws collide; fall back to scanning for a free
				// supplier deterministically.
				for t := 0; t < nSupp; t++ {
					if !seen[t] {
						s = t
						break
					}
				}
			}
			seen[s] = true
			psPairs = append(psPairs, [2]int64{int64(p), int64(s)})
		}
	}
	if err := load("partsupp", nPartSupp, func(i int) storage.Row {
		return storage.Row{
			catalog.NewInt(psPairs[i][0]), catalog.NewInt(psPairs[i][1]),
			psQty(), psCost(), comment(),
		}
	}); err != nil {
		return nil, err
	}

	// orders.
	oCust := g.zipfInt(nCust, 0)
	oStatus := g.zipfChoice(orderStatus)
	oPrice := g.zipfFloat(5000, 850, 555000)
	oDate := g.zipfDate()
	oPriority := g.zipfChoice(priorities)
	oClerk := g.zipfLabel("Clerk", maxInt(nSupp, 10))
	oShip := g.zipfInt(2, 0)
	comment = g.zipfLabel("comment", 500)
	if err := load("orders", nOrders, func(i int) storage.Row {
		return storage.Row{
			catalog.NewInt(int64(i)), oCust(), oStatus(), oPrice(), oDate(),
			oPriority(), oClerk(), oShip(), comment(),
		}
	}); err != nil {
		return nil, err
	}

	// lineitem: (l_partkey, l_suppkey) references an existing partsupp pair,
	// as the benchmark mandates — the pair index itself is drawn skewed.
	lOrder := g.zipfInt(nOrders, 0)
	lPair := newZipf(g.rng, len(psPairs), g.colZ())
	lNum := g.zipfInt(7, 1)
	lQty := g.zipfFloat(50, 1, 50)
	lPrice := g.zipfFloat(5000, 900, 105000)
	lDiscount := g.zipfFloat(11, 0, 0.10)
	lTax := g.zipfFloat(9, 0, 0.08)
	lRet := g.zipfChoice(returnFlags)
	lStatus := g.zipfChoice(lineStatus)
	lShip := g.zipfDate()
	lCommit := g.zipfDate()
	lReceipt := g.zipfDate()
	lInstruct := g.zipfChoice(shipInstruct)
	lMode := g.zipfChoice(shipModes)
	comment = g.zipfLabel("comment", 500)
	if err := load("lineitem", nLine, func(i int) storage.Row {
		pair := psPairs[lPair.next()]
		return storage.Row{
			lOrder(), catalog.NewInt(pair[0]), catalog.NewInt(pair[1]), lNum(),
			lQty(), lPrice(), lDiscount(), lTax(),
			lRet(), lStatus(), lShip(), lCommit(), lReceipt(), lInstruct(), lMode(), comment(),
		}
	}); err != nil {
		return nil, err
	}

	return db, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
