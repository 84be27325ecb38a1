// Package tpch provides a dbgen-like synthetic TPC-H subset — schema,
// value distributions and foreign-key relationships mirroring the benchmark
// at 1/100 linear scale (docs/ARCHITECTURE.md §scale) — plus plan builders for
// the query subset the paper evaluates (Table 4: simple Q6 and Q14; complex Q4, Q8,
// Q9, Q19, Q22; and Q13/Q17 for Figure 1).
//
// Scaling: TPC-H SF1 has 6,000,000 lineitem rows; here SF1 generates 60,000
// (1/100). All other tables keep their official ratios. Values follow the
// spec's shapes: uniform dates over 7 years, discounts 0–10%, quantities
// 1–50, PROMO-prefixed part types in 1/5 of parts, and so on. Dictionary
// strings are drawn from the spec's vocabularies.
package tpch

import (
	"fmt"
	"math/rand"

	"repro/internal/storage"
	"repro/internal/vec"
)

// Scale factors: rows per table at SF1 (1/100 of official TPC-H).
const (
	lineitemPerSF = 60_000
	ordersPerSF   = 15_000
	customerPerSF = 1_500
	partPerSF     = 2_000
	supplierPerSF = 100
	nations       = 25
	// Dates span 1992-01-01 .. 1998-12-31 as day numbers 0..2555.
	dateLo, dateHi = 0, 2556
)

// Part-type vocabulary (TPC-H §4.2.2.13): Types1 x Types2 x Types3.
var (
	types1 = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
	types2 = []string{"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"}
	types3 = []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}

	colors = []string{"almond", "antique", "aquamarine", "azure", "beige", "bisque",
		"black", "blanched", "blue", "blush", "brown", "burlywood", "burnished",
		"chartreuse", "chiffon", "chocolate", "coral", "cornflower", "cornsilk",
		"cream", "cyan", "dark", "deep", "dim", "dodger", "drab", "firebrick",
		"floral", "forest", "frosted", "gainsboro", "ghost", "goldenrod", "green",
		"grey", "honeydew", "hot", "hotpink", "indian", "ivory", "khaki"}

	containers1 = []string{"SM", "LG", "MED", "JUMBO", "WRAP"}
	containers2 = []string{"CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"}

	brands = []string{"Brand#11", "Brand#12", "Brand#13", "Brand#14", "Brand#15",
		"Brand#21", "Brand#22", "Brand#23", "Brand#24", "Brand#25",
		"Brand#31", "Brand#32", "Brand#33", "Brand#34", "Brand#35",
		"Brand#41", "Brand#42", "Brand#43", "Brand#44", "Brand#45",
		"Brand#51", "Brand#52", "Brand#53", "Brand#54", "Brand#55"}

	priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}

	commentFill = []string{"carefully final deposits", "quickly ironic packages",
		"furiously regular accounts", "slyly bold requests", "pending foxes",
		"express theodolites", "unusual asymptotes", "silent waters"}
)

// Config controls generation.
type Config struct {
	// SF is the scale factor; SF1 ≈ 60k lineitem rows (1/100 scale).
	SF float64
	// Seed makes generation deterministic.
	Seed int64
}

// Generate builds the catalog.
func Generate(cfg Config) *storage.Catalog {
	if cfg.SF <= 0 {
		cfg.SF = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x7c4a7d))
	nLine := int(float64(lineitemPerSF) * cfg.SF)
	nOrd := int(float64(ordersPerSF) * cfg.SF)
	nCust := int(float64(customerPerSF) * cfg.SF)
	nPart := int(float64(partPerSF) * cfg.SF)
	nSupp := int(float64(supplierPerSF) * cfg.SF)
	if nSupp < 10 {
		nSupp = 10
	}

	cat := storage.NewCatalog()
	cat.MustAdd(genNation(rng))
	cat.MustAdd(genSupplier(rng, nSupp))
	cat.MustAdd(genPart(rng, nPart))
	cat.MustAdd(genCustomer(rng, nCust))
	orders := genOrders(rng, nOrd, nCust)
	cat.MustAdd(orders)
	cat.MustAdd(genLineitem(rng, nLine, orders, nPart, nSupp))
	return cat
}

func intCol(name string, vals []int64) *storage.Column {
	return storage.NewIntColumn(name, vals)
}

func strCol(name string, d *vec.Dict, codes []int64) *storage.Column {
	return storage.NewColumn(name, 0, vec.NewDictCoded(codes, d))
}

func genNation(rng *rand.Rand) *storage.Table {
	t := storage.NewTable("nation")
	keys := make([]int64, nations)
	regions := make([]int64, nations)
	d := vec.NewDict()
	names := make([]int64, nations)
	for i := 0; i < nations; i++ {
		keys[i] = int64(i)
		regions[i] = int64(i % 5)
		names[i] = d.Code(fmt.Sprintf("NATION_%02d", i))
	}
	t.MustAddColumn(intCol("n_nationkey", keys))
	t.MustAddColumn(intCol("n_regionkey", regions))
	t.MustAddColumn(strCol("n_name", d, names))
	return t
}

func genSupplier(rng *rand.Rand, n int) *storage.Table {
	t := storage.NewTable("supplier")
	keys := make([]int64, n)
	nk := make([]int64, n)
	for i := 0; i < n; i++ {
		keys[i] = int64(i)
		nk[i] = int64(rng.Intn(nations))
	}
	t.MustAddColumn(intCol("s_suppkey", keys))
	t.MustAddColumn(intCol("s_nationkey", nk))
	return t
}

func genPart(rng *rand.Rand, n int) *storage.Table {
	t := storage.NewTable("part")
	keys := make([]int64, n)
	size := make([]int64, n)
	retail := make([]int64, n)
	supplycost := make([]int64, n)

	typeDict := vec.NewDict()
	typeCodes := make([]int64, n)
	nameDict := vec.NewDict()
	nameCodes := make([]int64, n)
	brandDict := vec.NewDict()
	brandCodes := make([]int64, n)
	contDict := vec.NewDict()
	contCodes := make([]int64, n)

	for i := 0; i < n; i++ {
		keys[i] = int64(i)
		size[i] = int64(1 + rng.Intn(50))
		retail[i] = int64(90000 + rng.Intn(20000)) // cents
		supplycost[i] = int64(100 + rng.Intn(900)) // cents
		ptype := types1[rng.Intn(len(types1))] + " " +
			types2[rng.Intn(len(types2))] + " " + types3[rng.Intn(len(types3))]
		typeCodes[i] = typeDict.Code(ptype)
		name := colors[rng.Intn(len(colors))] + " " + colors[rng.Intn(len(colors))]
		nameCodes[i] = nameDict.Code(name)
		brandCodes[i] = brandDict.Code(brands[rng.Intn(len(brands))])
		cont := containers1[rng.Intn(len(containers1))] + " " + containers2[rng.Intn(len(containers2))]
		contCodes[i] = contDict.Code(cont)
	}
	t.MustAddColumn(intCol("p_partkey", keys))
	t.MustAddColumn(intCol("p_size", size))
	t.MustAddColumn(intCol("p_retailprice", retail))
	t.MustAddColumn(intCol("p_supplycost", supplycost))
	t.MustAddColumn(strCol("p_type", typeDict, typeCodes))
	t.MustAddColumn(strCol("p_name", nameDict, nameCodes))
	t.MustAddColumn(strCol("p_brand", brandDict, brandCodes))
	t.MustAddColumn(strCol("p_container", contDict, contCodes))
	return t
}

func genCustomer(rng *rand.Rand, n int) *storage.Table {
	t := storage.NewTable("customer")
	keys := make([]int64, n)
	nk := make([]int64, n)
	acct := make([]int64, n)
	phoneDict := vec.NewDict()
	phones := make([]int64, n)
	for i := 0; i < n; i++ {
		keys[i] = int64(i)
		nk[i] = int64(rng.Intn(nations))
		acct[i] = int64(rng.Intn(1100000)) - 100000 // −1000.00 .. +9999.99 cents
		cc := 10 + nk[i]
		phones[i] = phoneDict.Code(fmt.Sprintf("%d-%03d-%03d", cc, rng.Intn(1000), rng.Intn(1000)))
	}
	t.MustAddColumn(intCol("c_custkey", keys))
	t.MustAddColumn(intCol("c_nationkey", nk))
	t.MustAddColumn(intCol("c_acctbal", acct))
	t.MustAddColumn(strCol("c_phone", phoneDict, phones))
	return t
}

func genOrders(rng *rand.Rand, n, nCust int) *storage.Table {
	t := storage.NewTable("orders")
	keys := make([]int64, n)
	cust := make([]int64, n)
	date := make([]int64, n)
	year := make([]int64, n)
	prioDict := vec.NewDict()
	prio := make([]int64, n)
	commentDict := vec.NewDict()
	comment := make([]int64, n)
	for i := 0; i < n; i++ {
		keys[i] = int64(i)
		cust[i] = int64(rng.Intn(nCust))
		date[i] = int64(dateLo + rng.Intn(dateHi-dateLo-121))
		year[i] = 1992 + date[i]/365
		prio[i] = prioDict.Code(priorities[rng.Intn(len(priorities))])
		c := commentFill[rng.Intn(len(commentFill))]
		if rng.Float64() < 0.02 {
			c = c + " special requests " + commentFill[rng.Intn(len(commentFill))]
		}
		comment[i] = commentDict.Code(c)
	}
	t.MustAddColumn(intCol("o_orderkey", keys))
	t.MustAddColumn(intCol("o_custkey", cust))
	t.MustAddColumn(intCol("o_orderdate", date))
	t.MustAddColumn(intCol("o_year", year))
	t.MustAddColumn(strCol("o_orderpriority", prioDict, prio))
	t.MustAddColumn(strCol("o_comment", commentDict, comment))
	return t
}

func genLineitem(rng *rand.Rand, n int, orders *storage.Table, nPart, nSupp int) *storage.Table {
	t := storage.NewTable("lineitem")
	okey := make([]int64, n)
	pkey := make([]int64, n)
	skey := make([]int64, n)
	qty := make([]int64, n)
	price := make([]int64, n)
	disc := make([]int64, n)
	tax := make([]int64, n)
	ship := make([]int64, n)
	commit := make([]int64, n)
	receipt := make([]int64, n)
	flagDict := vec.NewDict()
	flag := make([]int64, n)

	odate := orders.MustColumn("o_orderdate").Values()
	nOrd := orders.Rows()
	for i := 0; i < n; i++ {
		o := rng.Intn(nOrd)
		okey[i] = int64(o)
		pkey[i] = int64(rng.Intn(nPart))
		skey[i] = int64(rng.Intn(nSupp))
		qty[i] = int64(1 + rng.Intn(50))
		price[i] = qty[i] * int64(90000+rng.Intn(20000)) / 10 // cents
		disc[i] = int64(rng.Intn(11))                         // 0..10 percent
		tax[i] = int64(rng.Intn(9))
		ship[i] = odate[o] + int64(1+rng.Intn(121))
		commit[i] = odate[o] + int64(30+rng.Intn(61))
		receipt[i] = ship[i] + int64(1+rng.Intn(30))
		f := "N"
		if receipt[i] <= 1275 { // ~ returns allowed in the first half
			if rng.Float64() < 0.5 {
				f = "R"
			} else {
				f = "A"
			}
		}
		flag[i] = flagDict.Code(f)
	}
	t.MustAddColumn(intCol("l_orderkey", okey))
	t.MustAddColumn(intCol("l_partkey", pkey))
	t.MustAddColumn(intCol("l_suppkey", skey))
	t.MustAddColumn(intCol("l_quantity", qty))
	t.MustAddColumn(intCol("l_extendedprice", price))
	t.MustAddColumn(intCol("l_discount", disc))
	t.MustAddColumn(intCol("l_tax", tax))
	t.MustAddColumn(intCol("l_shipdate", ship))
	t.MustAddColumn(intCol("l_commitdate", commit))
	t.MustAddColumn(intCol("l_receiptdate", receipt))
	t.MustAddColumn(strCol("l_returnflag", flagDict, flag))
	return t
}
