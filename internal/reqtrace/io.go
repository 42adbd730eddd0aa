package reqtrace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/serve"
)

// The on-disk format is versioned JSONL and round-trips a trace exactly
// (arrival offsets are integer nanoseconds): a header object followed by
// one record object per line,
//
//	{"format":"reqtrace","version":1}
//	{"arrival_ns":212334791,"class":"chat","slo":"interactive","priority":2,"prompt_tokens":120,"output_tokens":64}
//
// whatever the file's name. Records of a session trace add "session_id"
// and "turn" keys; a one-shot record omits them, so a sessionless trace
// writes byte-identically to the pre-session format and every v1 file
// written before the extension still reads, with zero session fields.

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

// Read parses a JSONL trace from r and validates it.
func Read(r io.Reader) (Trace, error) {
	t, err := readJSONL(r)
	if err != nil {
		return Trace{}, err
	}
	if err := t.Validate(); err != nil {
		return Trace{}, err
	}
	return t, nil
}

func readJSONL(r io.Reader) (Trace, error) {
	sc := bufio.NewScanner(r)
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

// ReadFile reads and validates a trace file.
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

// WriteFile writes the trace to path as JSONL.
func (t Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("reqtrace: %w", err)
	}
	err = t.WriteJSONL(f)
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
