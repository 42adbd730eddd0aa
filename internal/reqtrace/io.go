package reqtrace

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/serve"
)

// The on-disk formats. Both are versioned and both round-trip a trace
// exactly (arrival offsets are integer nanoseconds):
//
// JSONL — a header object followed by one record object per line:
//
//	{"format":"reqtrace","version":1}
//	{"arrival_ns":212334791,"class":"chat","slo":"interactive","priority":2,"prompt_tokens":120,"output_tokens":64}
//
// CSV — a #reqtrace version comment, a column header, then one row per
// record:
//
//	#reqtrace v1
//	arrival_ns,class,slo,priority,prompt_tokens,output_tokens
//	212334791,chat,interactive,2,120,64
//
// Read sniffs the first byte ('{' = JSONL, '#' = CSV) so either format can
// be piped in under any file name; WriteFile picks CSV for a .csv path and
// JSONL otherwise.
//
// Session identity is carried backward-compatibly. JSONL records of a
// session trace add "session_id" and "turn" keys (omitted on one-shot
// records, so a sessionless trace writes byte-identically to the pre-session
// format). A CSV session trace appends session_id and turn columns to the
// header and every row; a sessionless trace writes the original six-column
// format byte for byte. Readers accept both layouts under the same version
// comment, so every v1 file written before the extension still reads, with
// zero session fields.

type jsonHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
}

type jsonRecord struct {
	ArrivalNS int64  `json:"arrival_ns"`
	Class     string `json:"class,omitempty"`
	SLO       string `json:"slo,omitempty"`
	Priority  int    `json:"priority,omitempty"`
	Prompt    int    `json:"prompt_tokens"`
	Output    int    `json:"output_tokens"`
	SessionID string `json:"session_id,omitempty"`
	Turn      int    `json:"turn,omitempty"`
}

var (
	csvHeader = []string{"arrival_ns", "class", "slo", "priority", "prompt_tokens", "output_tokens"}
	// csvSessionHeader is the extended layout a trace with sessions writes;
	// readers accept either.
	csvSessionHeader = append(append([]string(nil), csvHeader...), "session_id", "turn")
)

// hasSessions reports whether any record carries a session id — the
// write-side switch between the original and the extended CSV layout.
func (t Trace) hasSessions() bool {
	for _, r := range t.Records {
		if r.SessionID != "" {
			return true
		}
	}
	return false
}

// WriteJSONL writes the trace in the JSONL format.
func (t Trace) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(jsonHeader{Format: "reqtrace", Version: Version}); err != nil {
		return fmt.Errorf("reqtrace: write header: %w", err)
	}
	for i, r := range t.Records {
		jr := jsonRecord{
			ArrivalNS: int64(r.ArrivalAt),
			Class:     r.Class,
			SLO:       r.SLO,
			Priority:  r.Priority,
			Prompt:    r.PromptLen,
			Output:    r.OutputLen,
			SessionID: r.SessionID,
			Turn:      r.Turn,
		}
		if err := enc.Encode(jr); err != nil {
			return fmt.Errorf("reqtrace: write record %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// WriteCSV writes the trace in the CSV format: the extended session layout
// when any record carries a session id, the original six-column layout —
// byte for byte — otherwise.
func (t Trace) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "#reqtrace v%d\n", Version); err != nil {
		return err
	}
	sessions := t.hasSessions()
	header := csvHeader
	if sessions {
		header = csvSessionHeader
	}
	cw := csv.NewWriter(bw)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range t.Records {
		row := []string{
			strconv.FormatInt(int64(r.ArrivalAt), 10),
			r.Class, r.SLO,
			strconv.Itoa(r.Priority),
			strconv.Itoa(r.PromptLen),
			strconv.Itoa(r.OutputLen),
		}
		if sessions {
			row = append(row, r.SessionID, strconv.Itoa(r.Turn))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return bw.Flush()
}

// Read parses a trace from r, sniffing the format from the first byte, and
// validates it.
func Read(r io.Reader) (Trace, error) {
	br := bufio.NewReader(r)
	first, err := br.Peek(1)
	if err != nil {
		return Trace{}, fmt.Errorf("reqtrace: empty input: %w", err)
	}
	var t Trace
	switch first[0] {
	case '{':
		t, err = readJSONL(br)
	case '#':
		t, err = readCSV(br)
	default:
		return Trace{}, fmt.Errorf("reqtrace: unrecognized trace format (want a JSONL header object or a #reqtrace CSV comment, got %q)", first[0])
	}
	if err != nil {
		return Trace{}, err
	}
	if err := t.Validate(); err != nil {
		return Trace{}, err
	}
	return t, nil
}

func readJSONL(br *bufio.Reader) (Trace, error) {
	sc := bufio.NewScanner(br)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		return Trace{}, fmt.Errorf("reqtrace: missing JSONL header")
	}
	var h jsonHeader
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil || h.Format != "reqtrace" {
		return Trace{}, fmt.Errorf("reqtrace: bad JSONL header %q", sc.Text())
	}
	if h.Version > Version {
		return Trace{}, fmt.Errorf("reqtrace: trace version %d is newer than supported %d", h.Version, Version)
	}
	var t Trace
	line := 1
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" {
			continue
		}
		var jr jsonRecord
		if err := json.Unmarshal([]byte(s), &jr); err != nil {
			return Trace{}, fmt.Errorf("reqtrace: line %d: %w", line, err)
		}
		t.Records = append(t.Records, serve.Request{
			ID:        len(t.Records),
			ArrivalAt: time.Duration(jr.ArrivalNS),
			Class:     jr.Class,
			SLO:       jr.SLO,
			Priority:  jr.Priority,
			PromptLen: jr.Prompt,
			OutputLen: jr.Output,
			SessionID: jr.SessionID,
			Turn:      jr.Turn,
		})
	}
	if err := sc.Err(); err != nil {
		return Trace{}, fmt.Errorf("reqtrace: %w", err)
	}
	return t, nil
}

func readCSV(br *bufio.Reader) (Trace, error) {
	head, err := br.ReadString('\n')
	if err != nil {
		return Trace{}, fmt.Errorf("reqtrace: missing CSV version comment: %w", err)
	}
	var v int
	if _, err := fmt.Sscanf(strings.TrimSpace(head), "#reqtrace v%d", &v); err != nil {
		return Trace{}, fmt.Errorf("reqtrace: bad CSV version comment %q", strings.TrimSpace(head))
	}
	if v > Version {
		return Trace{}, fmt.Errorf("reqtrace: trace version %d is newer than supported %d", v, Version)
	}
	// Rows are length-checked against the header below; the csv package
	// only needs to deliver them (both accepted layouts are rectangular).
	cr := csv.NewReader(br)
	cr.FieldsPerRecord = -1
	rows, err := cr.ReadAll()
	if err != nil {
		return Trace{}, fmt.Errorf("reqtrace: %w", err)
	}
	if len(rows) == 0 {
		return Trace{}, fmt.Errorf("reqtrace: missing CSV column header %q", strings.Join(csvHeader, ","))
	}
	var sessions bool
	switch strings.Join(rows[0], ",") {
	case strings.Join(csvHeader, ","):
	case strings.Join(csvSessionHeader, ","):
		sessions = true
	default:
		return Trace{}, fmt.Errorf("reqtrace: missing CSV column header %q or %q",
			strings.Join(csvHeader, ","), strings.Join(csvSessionHeader, ","))
	}
	width := len(csvHeader)
	if sessions {
		width = len(csvSessionHeader)
	}
	var t Trace
	for i, row := range rows[1:] {
		if len(row) != width {
			return Trace{}, fmt.Errorf("reqtrace: CSV row %d has %d fields, want %d", i+1, len(row), width)
		}
		arrival, err1 := strconv.ParseInt(row[0], 10, 64)
		prio, err2 := strconv.Atoi(row[3])
		prompt, err3 := strconv.Atoi(row[4])
		output, err4 := strconv.Atoi(row[5])
		rec := serve.Request{
			ID:    i,
			Class: row[1],
			SLO:   row[2],
		}
		var err5 error
		if sessions {
			rec.SessionID = row[6]
			rec.Turn, err5 = strconv.Atoi(row[7])
		}
		for _, err := range []error{err1, err2, err3, err4, err5} {
			if err != nil {
				return Trace{}, fmt.Errorf("reqtrace: CSV row %d: %w", i+1, err)
			}
		}
		rec.ArrivalAt = time.Duration(arrival)
		rec.Priority = prio
		rec.PromptLen = prompt
		rec.OutputLen = output
		t.Records = append(t.Records, rec)
	}
	return t, nil
}

// ReadFile reads and validates a trace file of either format.
func ReadFile(path string) (Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return Trace{}, fmt.Errorf("reqtrace: %w", err)
	}
	defer f.Close()
	t, err := Read(f)
	if err != nil {
		return Trace{}, fmt.Errorf("reqtrace: %s: %w", path, strip(err))
	}
	return t, nil
}

// WriteFile writes the trace to path: CSV when the path ends in .csv, JSONL
// otherwise.
func (t Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("reqtrace: %w", err)
	}
	if strings.HasSuffix(strings.ToLower(path), ".csv") {
		err = t.WriteCSV(f)
	} else {
		err = t.WriteJSONL(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// strip removes the redundant "reqtrace: " prefix of a nested error so
// ReadFile can prepend the path without stuttering.
func strip(err error) error {
	if s, ok := strings.CutPrefix(err.Error(), "reqtrace: "); ok {
		return fmt.Errorf("%s", s)
	}
	return err
}
