package serving

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/corpus"
)

// TagRequest is the POST /tag body: sentences to label plus an optional
// per-request deadline in milliseconds (0 applies the server default; a
// value over maxDeadlineMS counts as maxDeadlineMS).
type TagRequest struct {
	Sentences  []string `json:"sentences"`
	DeadlineMS int64    `json:"deadline_ms,omitempty"`
}

// TagResponse is the POST /tag reply. Tags[i] holds sentence i's BIO
// labels ("B"/"I"/"O", one per token); Errors[i] is the empty string on
// success or the per-sentence shedding/validation error.
type TagResponse struct {
	Tags   [][]string `json:"tags"`
	Errors []string   `json:"errors,omitempty"`
}

// maxTagBody bounds a /tag request body. A longer body is answered with
// 413 and the server closes the connection instead of reading the rest.
const maxTagBody = 8 << 20

// maxDeadlineMS is the longest per-request deadline /tag applies: one day.
// A longer deadline_ms is cut to it, which keeps the deadline's
// time.Duration from overflowing into the past.
const maxDeadlineMS = 24 * 60 * 60 * 1000

// maxLine bounds a line-protocol request line, terminator included. A
// longer line is read to its end and answered with one ERR line.
const maxLine = 1 << 20

// errLineTooLong answers a request line over maxLine.
var errLineTooLong = fmt.Errorf("serving: request line over %d bytes", maxLine)

// Handler returns the HTTP front end:
//
//	POST /tag      JSON TagRequest → TagResponse (200 even when
//	               individual sentences were shed — inspect Errors;
//	               400 for a malformed body or data after the JSON
//	               object, 413 for a body over 8 MiB)
//	GET  /healthz  200 "ok" while the server accepts requests
//	GET  /statusz  JSON Stats counters
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/tag", s.handleTag)
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/statusz", s.handleStatus)
	return mux
}

func (s *Server) handleTag(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req TagRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxTagBody))
	err := dec.Decode(&req)
	if err == nil {
		if _, err = dec.Token(); err == nil {
			err = errors.New("data after the JSON object")
		} else if err == io.EOF {
			err = nil
		}
	}
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			http.Error(w, fmt.Sprintf("request body over %d bytes", maxTagBody), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return
	}
	var deadline time.Time
	if req.DeadlineMS > 0 {
		deadline = time.Now().Add(time.Duration(min(req.DeadlineMS, maxDeadlineMS)) * time.Millisecond)
	}
	resp := TagResponse{Tags: make([][]string, len(req.Sentences))}
	anyErr := false
	for i, text := range req.Sentences {
		tags, err := s.tagWithDeadline(text, deadline)
		if err != nil {
			anyErr = true
			resp.Errors = append(resp.Errors, err.Error())
			continue
		}
		resp.Errors = append(resp.Errors, "")
		out := make([]string, len(tags))
		for j, t := range tags {
			out[j] = t.String()
		}
		resp.Tags[i] = out
	}
	if !anyErr {
		resp.Errors = nil
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(&resp); err != nil {
		// The status line is already written; nothing to recover.
		_ = err
	}
}

// tagWithDeadline is TagInto into a buffer it grows until the sentence
// fits (zero deadline → server default).
func (s *Server) tagWithDeadline(text string, deadline time.Time) ([]corpus.Tag, error) {
	tags := make([]corpus.Tag, 64)
	for {
		n, err := s.TagInto(text, deadline, tags)
		if err == ErrShortBuffer {
			tags = make([]corpus.Tag, n)
			continue
		}
		if err != nil {
			return nil, err
		}
		return tags[:n], nil
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.submitMu.RLock()
	closed := s.closed
	s.submitMu.RUnlock()
	if closed {
		http.Error(w, "closed", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	st := s.Stats()
	if err := json.NewEncoder(w).Encode(&st); err != nil {
		_ = err
	}
}

// ServeLine answers the newline-delimited protocol on l until the
// listener closes: each request line is one raw sentence; the reply line
// is the space-separated BIO tags ("B I O …", empty line for an empty
// sentence) or "ERR <message>" when the request was shed or failed, or
// when the line is over 1 MiB, terminator included.
// Connections are handled concurrently; lines within one connection are
// answered in order.
func (s *Server) ServeLine(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go s.serveConn(conn, s.done)
	}
}

// serveConn answers one line-protocol connection. A close of done (server
// shutdown) closes the conn, unblocking the read loop so the goroutine
// exits promptly instead of lingering on an idle client.
func (s *Server) serveConn(conn net.Conn, done <-chan struct{}) {
	defer conn.Close() // lint:checked errdrop: connection teardown; there is no caller to surface a close error to
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-done:
			conn.Close() // lint:checked errdrop: shutdown path; closing only to unblock the read loop
		case <-stop:
		}
	}()
	var lines lineSplitter
	in := bufio.NewScanner(conn)
	in.Buffer(make([]byte, 0, 64<<10), maxLine)
	in.Split(lines.split)
	out := bufio.NewWriter(conn)
	for in.Scan() {
		var tags []corpus.Tag
		err := errLineTooLong
		if !lines.tooLong {
			tags, err = s.Tag(in.Text())
		}
		if err != nil {
			fmt.Fprintf(out, "ERR %v\n", err)
		} else {
			for j, t := range tags {
				if j > 0 {
					out.WriteByte(' ') // lint:checked errdrop: bufio errors are sticky; the Flush check below surfaces them
				}
				out.WriteString(t.String()) // lint:checked errdrop: bufio errors are sticky; the Flush check below surfaces them
			}
			out.WriteByte('\n') // lint:checked errdrop: bufio errors are sticky; the Flush check below surfaces them
		}
		if err := out.Flush(); err != nil {
			return
		}
	}
}

// lineSplitter is bufio.ScanLines for a Scanner whose buffer holds
// maxLine bytes, except that a longer line does not end the scan: it is
// consumed to its terminator and yields one empty token with tooLong
// set, so the connection can answer it and go on with the next line.
type lineSplitter struct {
	discarding bool // inside a line over maxLine
	tooLong    bool // the last token stands for a line over maxLine
}

func (l *lineSplitter) split(data []byte, atEOF bool) (int, []byte, error) {
	if l.discarding {
		end := bytes.IndexByte(data, '\n') + 1
		if end == 0 {
			if !atEOF {
				return len(data), nil, nil
			}
			end = len(data) // the connection ended inside the line
		}
		l.discarding, l.tooLong = false, true
		return end, data[:0], nil
	}
	l.tooLong = false
	advance, token, err := bufio.ScanLines(data, atEOF)
	if advance == 0 && token == nil && len(data) >= maxLine {
		// A full buffer and no terminator: the line is over maxLine.
		l.discarding = true
		return len(data), nil, nil
	}
	return advance, token, err
}
