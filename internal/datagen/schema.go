package datagen

import (
	"fmt"

	"autostats/internal/catalog"
)

// tpcdSchema returns the TPC-D benchmark schema: eight tables, the standard
// foreign-key join graph, and the thirteen indexes of the paper's "tuned
// TPC-D database ... with 13 indexes" (§1).
func tpcdSchema() *catalog.Schema {
	s := catalog.NewSchema()
	mustAdd := func(t *catalog.Table, pk string) {
		t.PrimaryKey = pk
		if err := s.AddTable(t); err != nil {
			panic(err)
		}
	}
	mustAdd(catalog.NewTable("region",
		catalog.Column{Name: "r_regionkey", Type: catalog.Int},
		catalog.Column{Name: "r_name", Type: catalog.String},
		catalog.Column{Name: "r_comment", Type: catalog.String},
	), "r_regionkey")
	mustAdd(catalog.NewTable("nation",
		catalog.Column{Name: "n_nationkey", Type: catalog.Int},
		catalog.Column{Name: "n_name", Type: catalog.String},
		catalog.Column{Name: "n_regionkey", Type: catalog.Int},
		catalog.Column{Name: "n_comment", Type: catalog.String},
	), "n_nationkey")
	mustAdd(catalog.NewTable("supplier",
		catalog.Column{Name: "s_suppkey", Type: catalog.Int},
		catalog.Column{Name: "s_name", Type: catalog.String},
		catalog.Column{Name: "s_address", Type: catalog.String},
		catalog.Column{Name: "s_nationkey", Type: catalog.Int},
		catalog.Column{Name: "s_phone", Type: catalog.String},
		catalog.Column{Name: "s_acctbal", Type: catalog.Float},
		catalog.Column{Name: "s_comment", Type: catalog.String},
	), "s_suppkey")
	mustAdd(catalog.NewTable("customer",
		catalog.Column{Name: "c_custkey", Type: catalog.Int},
		catalog.Column{Name: "c_name", Type: catalog.String},
		catalog.Column{Name: "c_address", Type: catalog.String},
		catalog.Column{Name: "c_nationkey", Type: catalog.Int},
		catalog.Column{Name: "c_phone", Type: catalog.String},
		catalog.Column{Name: "c_acctbal", Type: catalog.Float},
		catalog.Column{Name: "c_mktsegment", Type: catalog.String},
		catalog.Column{Name: "c_comment", Type: catalog.String},
	), "c_custkey")
	mustAdd(catalog.NewTable("part",
		catalog.Column{Name: "p_partkey", Type: catalog.Int},
		catalog.Column{Name: "p_name", Type: catalog.String},
		catalog.Column{Name: "p_mfgr", Type: catalog.String},
		catalog.Column{Name: "p_brand", Type: catalog.String},
		catalog.Column{Name: "p_type", Type: catalog.String},
		catalog.Column{Name: "p_size", Type: catalog.Int},
		catalog.Column{Name: "p_container", Type: catalog.String},
		catalog.Column{Name: "p_retailprice", Type: catalog.Float},
		catalog.Column{Name: "p_comment", Type: catalog.String},
	), "p_partkey")
	mustAdd(catalog.NewTable("partsupp",
		catalog.Column{Name: "ps_partkey", Type: catalog.Int},
		catalog.Column{Name: "ps_suppkey", Type: catalog.Int},
		catalog.Column{Name: "ps_availqty", Type: catalog.Int},
		catalog.Column{Name: "ps_supplycost", Type: catalog.Float},
		catalog.Column{Name: "ps_comment", Type: catalog.String},
	), "")
	mustAdd(catalog.NewTable("orders",
		catalog.Column{Name: "o_orderkey", Type: catalog.Int},
		catalog.Column{Name: "o_custkey", Type: catalog.Int},
		catalog.Column{Name: "o_orderstatus", Type: catalog.String},
		catalog.Column{Name: "o_totalprice", Type: catalog.Float},
		catalog.Column{Name: "o_orderdate", Type: catalog.Date},
		catalog.Column{Name: "o_orderpriority", Type: catalog.String},
		catalog.Column{Name: "o_clerk", Type: catalog.String},
		catalog.Column{Name: "o_shippriority", Type: catalog.Int},
		catalog.Column{Name: "o_comment", Type: catalog.String},
	), "o_orderkey")
	mustAdd(catalog.NewTable("lineitem",
		catalog.Column{Name: "l_orderkey", Type: catalog.Int},
		catalog.Column{Name: "l_partkey", Type: catalog.Int},
		catalog.Column{Name: "l_suppkey", Type: catalog.Int},
		catalog.Column{Name: "l_linenumber", Type: catalog.Int},
		catalog.Column{Name: "l_quantity", Type: catalog.Float},
		catalog.Column{Name: "l_extendedprice", Type: catalog.Float},
		catalog.Column{Name: "l_discount", Type: catalog.Float},
		catalog.Column{Name: "l_tax", Type: catalog.Float},
		catalog.Column{Name: "l_returnflag", Type: catalog.String},
		catalog.Column{Name: "l_linestatus", Type: catalog.String},
		catalog.Column{Name: "l_shipdate", Type: catalog.Date},
		catalog.Column{Name: "l_commitdate", Type: catalog.Date},
		catalog.Column{Name: "l_receiptdate", Type: catalog.Date},
		catalog.Column{Name: "l_shipinstruct", Type: catalog.String},
		catalog.Column{Name: "l_shipmode", Type: catalog.String},
		catalog.Column{Name: "l_comment", Type: catalog.String},
	), "")

	fks := []catalog.ForeignKey{
		{Table: "nation", Column: "n_regionkey", RefTable: "region", RefColumn: "r_regionkey"},
		{Table: "supplier", Column: "s_nationkey", RefTable: "nation", RefColumn: "n_nationkey"},
		{Table: "customer", Column: "c_nationkey", RefTable: "nation", RefColumn: "n_nationkey"},
		{Table: "partsupp", Column: "ps_partkey", RefTable: "part", RefColumn: "p_partkey"},
		{Table: "partsupp", Column: "ps_suppkey", RefTable: "supplier", RefColumn: "s_suppkey"},
		{Table: "orders", Column: "o_custkey", RefTable: "customer", RefColumn: "c_custkey"},
		{Table: "lineitem", Column: "l_orderkey", RefTable: "orders", RefColumn: "o_orderkey"},
		{Table: "lineitem", Column: "l_partkey", RefTable: "part", RefColumn: "p_partkey"},
		{Table: "lineitem", Column: "l_suppkey", RefTable: "supplier", RefColumn: "s_suppkey"},
		// TPC-D's composite foreign key LINEITEM(L_PARTKEY, L_SUPPKEY) →
		// PARTSUPP, expressed as two single-column edges; the workload
		// generator emits both predicates together, which also exercises
		// multi-column join statistics (§3.1).
		{Table: "lineitem", Column: "l_partkey", RefTable: "partsupp", RefColumn: "ps_partkey"},
		{Table: "lineitem", Column: "l_suppkey", RefTable: "partsupp", RefColumn: "ps_suppkey"},
	}
	for _, fk := range fks {
		if err := s.AddForeignKey(fk); err != nil {
			panic(err)
		}
	}

	// The 13 indexes of the tuned configuration: primary keys, the hot
	// foreign keys, and the date column the benchmark queries range over.
	indexes := []struct{ table, column string }{
		{"region", "r_regionkey"},
		{"nation", "n_nationkey"},
		{"supplier", "s_suppkey"},
		{"supplier", "s_nationkey"},
		{"customer", "c_custkey"},
		{"customer", "c_nationkey"},
		{"part", "p_partkey"},
		{"partsupp", "ps_partkey"},
		{"orders", "o_orderkey"},
		{"orders", "o_custkey"},
		{"orders", "o_orderdate"},
		{"lineitem", "l_orderkey"},
		{"lineitem", "l_partkey"},
	}
	for i, ix := range indexes {
		err := s.AddIndex(catalog.Index{
			Name:   fmt.Sprintf("ix_%d_%s_%s", i+1, ix.table, ix.column),
			Table:  ix.table,
			Column: ix.column,
			Unique: isPrimaryKey(s, ix.table, ix.column),
		})
		if err != nil {
			panic(err)
		}
	}
	return s
}

func isPrimaryKey(s *catalog.Schema, table, column string) bool {
	t, err := s.Table(table)
	if err != nil {
		return false
	}
	return t.PrimaryKey == column
}
