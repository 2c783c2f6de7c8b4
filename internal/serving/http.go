package serving

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/corpus"
)

// TagRequest is the POST /tag body: sentences to label plus an optional
// per-request deadline in milliseconds (0 applies the server default).
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

// Handler returns the HTTP front end:
//
//	POST /tag      JSON TagRequest → TagResponse (200 even when
//	               individual sentences were shed — inspect Errors;
//	               400 for a malformed body, 413 for one over 8 MiB)
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
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxTagBody)).Decode(&req); err != nil {
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
		deadline = time.Now().Add(time.Duration(req.DeadlineMS) * time.Millisecond)
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

// tagWithDeadline is Tag with an explicit deadline (zero → server
// default).
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
// sentence) or "ERR <message>" when the request was shed or failed.
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
	in := bufio.NewScanner(conn)
	in.Buffer(make([]byte, 0, 64<<10), 1<<20)
	out := bufio.NewWriter(conn)
	for in.Scan() {
		tags, err := s.Tag(in.Text())
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
