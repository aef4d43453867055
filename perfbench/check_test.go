package main

import (
	"errors"
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"genmapper"
)

// tinyWorld imports a small universe and builds its model.
func tinyWorld(t *testing.T) (*genmapper.System, *oracle) {
	t.Helper()
	ds, err := datasets(3, 0.004)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := genmapper.New()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := importAll(sys, ds, nil); err != nil {
		t.Fatal(err)
	}
	return sys, oracleOf(ds)
}

// tinyQuery is an OR query whose view has several rows with annotations.
func tinyQuery(o *oracle) listQuery {
	genes := o.accessions("LocusLink")
	return listQuery{source: "LocusLink", accessions: genes[:12], targets: []target{{name: "GO"}, {name: "Hugo"}}}
}

var trRE = regexp.MustCompile(`(?s)<tr><td>.*?</tr>`)

func TestQueryPageCheckCatchesCorruption(t *testing.T) {
	sys, o := tinyWorld(t)
	c := serve(sys)
	defer c.close()
	q := tinyQuery(o)
	page, _, err := c.post("/query", q.form())
	if err != nil {
		t.Fatal(err)
	}
	want, err := newExpectation(o, sys).rows(q)
	if err != nil {
		t.Fatal(err)
	}
	check := func(page string) error {
		stats, got, err := parsePage([]byte(page))
		if err != nil {
			return err
		}
		if stats != o.totals().String() {
			return errStats
		}
		return checkRows(got, q.columns(), want)
	}
	if err := check(string(page)); err != nil {
		t.Fatalf("uncorrupted page fails its check: %v", err)
	}
	rows := trRE.FindAllStringIndex(string(page), -1)
	if len(rows) < 2 {
		t.Fatalf("view has %d rows, want at least 2", len(rows))
	}
	last := rows[len(rows)-1]
	dropped := string(page[:last[0]]) + string(page[last[1]:])

	first := string(page[rows[0][0]:rows[0][1]])
	cells := cellRE.FindAllStringSubmatch(first, -1)
	swappedRow := strings.Replace(first, cells[0][0]+cells[1][0], "<td>"+cells[1][1]+"</td><td>"+cells[0][1]+"</td>", 1)
	swapped := strings.Replace(string(page), first, swappedRow, 1)

	statsFaked := strings.Replace(string(page), "associations=", "associations=1", 1)
	for name, bad := range map[string]string{"dropped row": dropped, "swapped cell": swapped, "stats line": statsFaked} {
		if bad == string(page) {
			t.Fatalf("%s: corruption left the page unchanged", name)
		}
		if err := check(bad); err == nil {
			t.Errorf("%s: corrupted page passes its check", name)
		}
	}
}

var errStats = errors.New("stats line differs")

func TestExportCheckCatchesCorruption(t *testing.T) {
	sys, o := tinyWorld(t)
	c := serve(sys)
	defer c.close()
	exp := newExpectation(o, sys)
	for _, format := range exportFormats {
		e := exportReq{source: "LocusLink", targets: []target{{name: "GO"}, {name: "Hugo"}}, format: format}
		vts, err := exp.targets(e.source, e.targets)
		if err != nil {
			t.Fatal(err)
		}
		all := o.accessions(e.source)
		want := viewRows(all, vts, false)
		cols := []string{"LocusLink", "GO", "Hugo"}
		body, _, err := c.get("/export", e.query())
		if err != nil {
			t.Fatal(err)
		}
		got, err := parseExport(body, format)
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if err := checkRows(got, cols, want); err != nil {
			t.Fatalf("%s: uncorrupted export fails its check: %v", format, err)
		}
		if err := checkShape(got, cols, viewRowCount(all, vts, false)); err != nil {
			t.Fatalf("%s: uncorrupted export fails its shape check: %v", format, err)
		}
		// Find a row with two different cells to swap.
		swapAt := -1
		for i, r := range got.rows {
			if r[1] != r[2] {
				swapAt = i
				break
			}
		}
		if swapAt < 0 {
			t.Fatalf("%s: no row with two different cells", format)
		}
		dropped := table{columns: got.columns, rows: got.rows[1:]}
		swapped := table{columns: got.columns, rows: append([][]string(nil), got.rows...)}
		r := append([]string(nil), swapped.rows[swapAt]...)
		r[1], r[2] = r[2], r[1]
		swapped.rows[swapAt] = r
		if checkRows(dropped, cols, want) == nil || checkShape(dropped, cols, len(want)) == nil {
			t.Errorf("%s: a dropped row passes the check", format)
		}
		if checkRows(swapped, cols, want) == nil {
			t.Errorf("%s: a swapped cell passes the full check", format)
		}
	}
	// Byte-level corruption of a TSV body: a truncated last line.
	body, _, err := c.get("/export", exportReq{source: "LocusLink", targets: []target{{name: "GO"}}, format: "tsv"}.query())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parseExport(body[:len(body)-1], "tsv"); err == nil {
		t.Error("a truncated tsv export parses")
	}
}

func TestProfileCheckCatchesCorruption(t *testing.T) {
	sys, o := tinyWorld(t)
	pc, err := newProfileCheck(o, 5)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := newPipeline(sys)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipe.Run(pc.study)
	if err != nil {
		t.Fatal(err)
	}
	if err := pc.check(res); err != nil {
		t.Fatalf("uncorrupted profile fails its check: %v", err)
	}
	if len(res.Results) < 2 {
		t.Fatalf("profile has %d terms, want at least 2", len(res.Results))
	}
	annot, err := pipe.ProbeAnnotations()
	if err != nil {
		t.Fatal(err)
	}
	if len(annot) != pc.annotated {
		t.Fatalf("ProbeAnnotations annotates %d probes, the model %d", len(annot), pc.annotated)
	}
	res.Results[0].Detected++
	if pc.check(res) == nil {
		t.Error("a wrong detected count passes the check")
	}
	res.Results[0].Detected--
	res.Results = res.Results[1:]
	if pc.check(res) == nil {
		t.Error("a dropped term passes the check")
	}
}

func TestReaderCheckCatchesCorruption(t *testing.T) {
	_, o := tinyWorld(t)
	maps := map[string]map[string]map[string]bool{}
	for _, tgt := range readerTargets {
		m, err := o.compose([]string{readerSource, tgt})
		if err != nil {
			t.Fatal(err)
		}
		maps[tgt] = m
	}
	list := geneList(rand.New(rand.NewSource(1)), o.accessions(readerSource), 15)
	vts := []viewTarget{{mapping: maps["GO"]}, {mapping: maps["Hugo"]}}
	good := table{columns: []string{readerSource, "GO", "Hugo"}, rows: viewRows(list, vts, false)}
	if err := checkReaderView(good, list, maps); err != nil {
		t.Fatalf("uncorrupted reader view fails its check: %v", err)
	}
	// Drop every row of one gene.
	var dropped [][]string
	for _, r := range good.rows {
		if r[0] != list[0] {
			dropped = append(dropped, r)
		}
	}
	if checkReaderView(table{good.columns, dropped}, list, maps) == nil {
		t.Error("a view missing a gene passes the check")
	}
	// Put a GO term where a Hugo symbol belongs.
	swapped := append([][]string(nil), good.rows...)
	for i, r := range swapped {
		if r[1] != "" && r[1] != r[2] {
			r = append([]string(nil), r...)
			r[1], r[2] = r[2], r[1]
			swapped[i] = r
			break
		}
	}
	if checkReaderView(table{good.columns, swapped}, list, maps) == nil {
		t.Error("a swapped cell passes the check")
	}
}

func TestTotalsCatchDroppedAssociation(t *testing.T) {
	sys, o := tinyWorld(t)
	st, err := sys.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.String() != o.totals().String() {
		t.Fatalf("totals %q, model %q", st.String(), o.totals().String())
	}
	if _, err := sys.DB().Exec("DELETE FROM object_rel WHERE object_rel_id = 1"); err != nil {
		t.Fatal(err)
	}
	st, err = sys.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.String() == o.totals().String() {
		t.Error("totals still match the model after associations were deleted")
	}
}
