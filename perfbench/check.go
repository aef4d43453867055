package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"html"
	"regexp"
	"strings"
)

// table is a parsed annotation view as a client receives it.
type table struct {
	columns []string
	rows    [][]string
}

var (
	statsLineRE = regexp.MustCompile(`<h1>GenMapper</h1>\s*<p>([^<]*)</p>`)
	errorRE     = regexp.MustCompile(`<p style="color:red">([^<]*)</p>`)
	tableRE     = regexp.MustCompile(`(?s)<table>(.*?)</table>`)
	rowRE       = regexp.MustCompile(`(?s)<tr>(.*?)</tr>`)
	cellRE      = regexp.MustCompile(`(?s)<t[hd]>(.*?)</t[hd]>`)
)

// nullCell is how the query page renders a NULL cell.
const nullCell = `<span class="null">-</span>`

// parsePage extracts the stats line and the annotation view from a
// Figure 6 query page. A page that reports an error fails.
func parsePage(page []byte) (stats string, t table, err error) {
	if m := errorRE.FindSubmatch(page); m != nil {
		return "", t, fmt.Errorf("page reports error: %s", html.UnescapeString(string(m[1])))
	}
	m := statsLineRE.FindSubmatch(page)
	if m == nil {
		return "", t, fmt.Errorf("page has no stats line")
	}
	stats = html.UnescapeString(string(m[1]))
	tm := tableRE.FindSubmatch(page)
	if tm == nil {
		return stats, t, fmt.Errorf("page has no annotation view")
	}
	for i, rm := range rowRE.FindAllSubmatch(tm[1], -1) {
		var cells []string
		for _, cm := range cellRE.FindAllSubmatch(rm[1], -1) {
			c := string(cm[1])
			if c == nullCell {
				c = ""
			}
			cells = append(cells, html.UnescapeString(c))
		}
		if i == 0 {
			t.columns = cells
			continue
		}
		t.rows = append(t.rows, cells)
	}
	if t.columns == nil {
		return stats, t, fmt.Errorf("annotation view has no header row")
	}
	return stats, t, nil
}

// parseExport parses a /export body in the named format (tsv, csv, json).
func parseExport(body []byte, format string) (table, error) {
	var t table
	switch format {
	case "tsv":
		text := string(body)
		if !strings.HasSuffix(text, "\n") {
			return t, fmt.Errorf("tsv export does not end in a newline")
		}
		lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
		t.columns = strings.Split(lines[0], "\t")
		for _, l := range lines[1:] {
			t.rows = append(t.rows, strings.Split(l, "\t"))
		}
	case "csv":
		recs, err := csv.NewReader(bytes.NewReader(body)).ReadAll()
		if err != nil {
			return t, fmt.Errorf("csv export: %w", err)
		}
		if len(recs) == 0 {
			return t, fmt.Errorf("csv export is empty")
		}
		t.columns, t.rows = recs[0], recs[1:]
	case "json":
		var doc struct {
			Columns []string   `json:"columns"`
			Rows    [][]string `json:"rows"`
		}
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&doc); err != nil {
			return t, fmt.Errorf("json export: %w", err)
		}
		t.columns, t.rows = doc.Columns, doc.Rows
	default:
		return t, fmt.Errorf("unknown export format %q", format)
	}
	return t, nil
}

// checkShape verifies a received view's header and that every row has one
// cell per column and the expected number of rows.
func checkShape(got table, columns []string, rows int) error {
	if strings.Join(got.columns, "\t") != strings.Join(columns, "\t") {
		return fmt.Errorf("columns %q, want %q", got.columns, columns)
	}
	for i, r := range got.rows {
		if len(r) != len(columns) {
			return fmt.Errorf("row %d has %d cells, want %d", i, len(r), len(columns))
		}
	}
	if len(got.rows) != rows {
		return fmt.Errorf("%d rows, want %d", len(got.rows), rows)
	}
	return nil
}

// checkRows verifies a received view against the expected rows (sorted, as
// viewRows returns them): same header, and the same rows as a multiset.
func checkRows(got table, columns []string, want [][]string) error {
	if err := checkShape(got, columns, len(want)); err != nil {
		return err
	}
	rows := append([][]string(nil), got.rows...)
	sortRows(rows)
	for i := range rows {
		if a, b := strings.Join(rows[i], "\t"), strings.Join(want[i], "\t"); a != b {
			return fmt.Errorf("row %q is not in the expected view (first difference; expected %q there)", a, b)
		}
	}
	return nil
}
