package nocbt

// Typed experiment results and the shared render layer. Every registered
// Experiment returns a *Result: structured tables of typed rows plus the
// metadata of the run, with a section script describing how the paper's
// text rendering is assembled from them. One Result renders as an aligned
// text report (byte-identical to the testdata/*_report.golden files), as JSON for
// machine consumers, or as CSV for spreadsheets — the renderer is shared,
// experiments only produce data.

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"nocbt/internal/stats"
)

// ResultTable is one table of typed rows. Cells are JSON-serializable
// scalars (strings, ints, int64s, float64s); the text and CSV renderers
// format float64 cells with two decimals, matching the paper tables.
type ResultTable struct {
	// Name labels the table in multi-table results and CSV output.
	Name    string   `json:"name,omitempty"`
	Columns []string `json:"columns"`
	Rows    [][]any  `json:"rows"`
}

// AddRow appends one row of typed cells.
func (t *ResultTable) AddRow(cells ...any) {
	t.Rows = append(t.Rows, cells)
}

// Section is one step of a Result's text rendering: verbatim text, or an
// aligned rendering of one of the result's tables. The zero value is a
// (possibly empty) text section, so a natural struct literal
// Section{Text: "…"} behaves as written.
type Section struct {
	// Text is written verbatim by the text renderer (ignored when
	// HasTable is set).
	Text string `json:"text,omitempty"`
	// HasTable selects table rendering; Table then indexes Result.Tables.
	HasTable bool `json:"has_table,omitempty"`
	Table    int  `json:"table,omitempty"`
}

// TextSection returns a verbatim-text section.
func TextSection(text string) Section { return Section{Text: text} }

// TableSection returns a section rendering Tables[i] as an aligned grid.
func TableSection(i int) Section { return Section{HasTable: true, Table: i} }

// Result is the structured outcome of one Experiment run.
type Result struct {
	// Experiment is the registered name the result came from.
	Experiment string `json:"experiment"`
	// Title is the paper-facing headline (e.g. "Tab. I — BT reduction
	// without NoC").
	Title string `json:"title"`
	// Meta records the parameters and derived scalars of the run.
	Meta map[string]any `json:"meta,omitempty"`
	// Tables holds the typed data.
	Tables []ResultTable `json:"tables"`
	// Sections scripts the text rendering. Empty means: title line (when
	// set) followed by every table.
	Sections []Section `json:"-"`
}

// Format selects a rendering of a Result.
type Format int

const (
	// Text renders the paper-style aligned report (the default).
	Text Format = iota
	// JSON renders the full structured result as indented JSON.
	JSON
	// CSV renders the result's tables as comma-separated values.
	CSV
)

// String implements fmt.Stringer.
func (f Format) String() string {
	switch f {
	case Text:
		return "table"
	case JSON:
		return "json"
	case CSV:
		return "csv"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// ParseFormat maps a command-line format name onto a Format. Accepted:
// "table" (or "text"), "json", "csv".
func ParseFormat(name string) (Format, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "table", "text", "":
		return Text, nil
	case "json":
		return JSON, nil
	case "csv":
		return CSV, nil
	default:
		return Text, fmt.Errorf("nocbt: unknown format %q (want table, json or csv)", name)
	}
}

// Render renders the result in the requested format.
func Render(r *Result, f Format) (string, error) {
	var sb strings.Builder
	if err := WriteResult(&sb, r, f); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// WriteResult streams the rendered result to w.
func WriteResult(w io.Writer, r *Result, f Format) error {
	if r == nil {
		return fmt.Errorf("nocbt: nil result")
	}
	switch f {
	case Text:
		return writeText(w, r)
	case JSON:
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(r)
	case CSV:
		return writeCSV(w, r)
	default:
		return fmt.Errorf("nocbt: unknown render format %v", f)
	}
}

// writeText assembles the section script (or the default title+tables
// layout) with the repository's standard table formatter.
func writeText(w io.Writer, r *Result) error {
	sections := r.Sections
	if len(sections) == 0 {
		if r.Title != "" {
			sections = append(sections, TextSection(r.Title+"\n"))
		}
		for i := range r.Tables {
			sections = append(sections, TableSection(i))
		}
	}
	for _, sec := range sections {
		if !sec.HasTable {
			if _, err := io.WriteString(w, sec.Text); err != nil {
				return err
			}
			continue
		}
		if sec.Table < 0 || sec.Table >= len(r.Tables) {
			return fmt.Errorf("nocbt: result section references table %d of %d", sec.Table, len(r.Tables))
		}
		tbl := r.Tables[sec.Table]
		t := stats.NewTable(tbl.Columns...)
		for _, row := range tbl.Rows {
			t.AddRowf(row...)
		}
		if _, err := io.WriteString(w, t.String()); err != nil {
			return err
		}
	}
	return nil
}

// csvCell renders one CSV cell. Unlike the aligned text tables (which
// round float64 to two decimals for the paper layout), CSV is the
// machine-readable surface: floats keep full precision so probability
// columns like fig11's 0.003-scale transition rates survive.
func csvCell(c any) string {
	if v, ok := c.(float64); ok {
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
	return stats.FormatCell(c)
}

// writeCSV emits each table as a header row plus data rows; multiple
// tables are separated by a blank line and announced with a "# name"
// comment row.
func writeCSV(w io.Writer, r *Result) error {
	var buf bytes.Buffer
	for ti, tbl := range r.Tables {
		if ti > 0 {
			buf.WriteString("\n")
		}
		if tbl.Name != "" && len(r.Tables) > 1 {
			fmt.Fprintf(&buf, "# %s\n", tbl.Name)
		}
		cw := csv.NewWriter(&buf)
		if err := cw.Write(tbl.Columns); err != nil {
			return err
		}
		for _, row := range tbl.Rows {
			cells := make([]string, len(row))
			for i, c := range row {
				cells[i] = csvCell(c)
			}
			if err := cw.Write(cells); err != nil {
				return err
			}
		}
		cw.Flush()
		if err := cw.Error(); err != nil {
			return err
		}
	}
	_, err := w.Write(buf.Bytes())
	return err
}
