package serving

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/tokenize"
)

// fuzzServer starts a server over the shared test artifact for the
// lifetime of a fuzz target.
func fuzzServer(f *testing.F) *Server {
	f.Helper()
	art, _, _ := testArtifact(f)
	s, err := NewServer(art, Config{Workers: 2})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	return s
}

// FuzzTagHandler posts arbitrary bytes to /tag. The handler must answer
// 200 exactly when the body is one JSON TagRequest (json.Unmarshal accepts
// it: trailing white space only), 400 otherwise, and 413 only for a body
// over the cap. On 200 the response must decode, hold one entry per
// request sentence, and give every sentence that was not shed exactly as
// many tags as the tokenizer gives it tokens.
func FuzzTagHandler(f *testing.F) {
	s := fuzzServer(f)
	h := s.Handler()
	for _, seed := range []string{
		`{"sentences":["The BRCA1 gene is mutated .","x y ."]}`,
		`{"sentences":[""],"deadline_ms":1}`,
		`{"sentences":null}`,
		`{"sentences":["a"]} trailing`,
		`{"sentences":[1]}`,
		`{"sentences":["\u0000\ud800 é"]}`,
		`[]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/tag", bytes.NewReader(body)))
		var req TagRequest
		decodeErr := json.Unmarshal(body, &req)
		switch rec.Code {
		case http.StatusOK:
			if decodeErr != nil {
				t.Fatalf("200 for a body that does not decode: %v", decodeErr)
			}
		case http.StatusBadRequest:
			if decodeErr == nil {
				t.Fatalf("400 for a body that decodes: %q", body)
			}
			return
		case http.StatusRequestEntityTooLarge:
			if len(body) <= maxTagBody {
				t.Fatalf("413 for a %d-byte body", len(body))
			}
			return
		default:
			t.Fatalf("status %d for body %q", rec.Code, body)
		}
		var resp TagResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("response does not decode: %v\n%s", err, rec.Body.Bytes())
		}
		if len(resp.Tags) != len(req.Sentences) {
			t.Fatalf("%d tag entries for %d sentences", len(resp.Tags), len(req.Sentences))
		}
		if resp.Errors != nil && len(resp.Errors) != len(req.Sentences) {
			t.Fatalf("%d error entries for %d sentences", len(resp.Errors), len(req.Sentences))
		}
		for i, text := range req.Sentences {
			if resp.Errors != nil && resp.Errors[i] != "" {
				continue
			}
			if want := len(tokenize.Sentence(text)); len(resp.Tags[i]) != want {
				t.Fatalf("sentence %d (%q): %d tags for %d tokens", i, text, len(resp.Tags[i]), want)
			}
		}
	})
}

// FuzzLineProtocol feeds arbitrary bytes, as newline-terminated request
// lines, to one line-protocol connection over net.Pipe. The server must
// send exactly one reply line per request line — the too-long ERR line for
// a line over the protocol's 1 MiB limit, otherwise an ERR line or one tag
// per token — and its connection goroutine must exit once the client
// closes the connection.
func FuzzLineProtocol(f *testing.F) {
	s := fuzzServer(f)
	for _, seed := range []string{
		"The BRCA1 gene is mutated .\nx y .\n",
		"\n\n",
		"no newline at the end",
		"carriage return\r\n\r\n",
		"\x00\xff\xfe invalid utf-8\n",
		strings.Repeat("a", maxLine) + "\nx y .\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 0 && data[len(data)-1] != '\n' {
			data = append(data, '\n')
		}
		lines := strings.SplitAfter(string(data), "\n")
		lines = lines[:len(lines)-1] // the empty tail after the last '\n'
		client, server := net.Pipe()
		exited := make(chan struct{})
		go func() {
			defer close(exited)
			s.serveConn(server, s.done)
		}()
		written := make(chan error, 1)
		go func() {
			_, err := client.Write(data)
			written <- err
		}()
		rd := bufio.NewReader(client)
		for i, l := range lines {
			reply, err := rd.ReadString('\n')
			if err != nil {
				t.Fatalf("request line %d of %d: no reply: %v", i, len(lines), err)
			}
			if tooLong := "ERR " + errLineTooLong.Error() + "\n"; len(l) > maxLine {
				if reply != tooLong {
					t.Fatalf("request line %d of %d bytes: reply %q, want %q", i, len(l), reply, tooLong)
				}
				continue
			}
			if strings.HasPrefix(reply, "ERR ") {
				continue
			}
			// bufio.ScanLines drops the terminator and one trailing '\r'.
			text := strings.TrimSuffix(strings.TrimSuffix(l, "\n"), "\r")
			if got, want := len(strings.Fields(reply)), len(tokenize.Sentence(text)); got != want {
				t.Fatalf("request line %d (%q): reply %q has %d tags for %d tokens", i, text, reply, got, want)
			}
		}
		if err := <-written; err != nil {
			t.Fatalf("write: %v", err)
		}
		// Every request line is answered, so a further reply would already
		// be buffered or waiting in the pipe.
		if err := client.SetReadDeadline(time.Now().Add(time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		if extra, err := rd.ReadString('\n'); extra != "" || !isTimeout(err) {
			t.Fatalf("unexpected reply %q after %d request lines (err %v)", extra, len(lines), err)
		}
		client.Close() // lint:checked errdrop: closing the in-memory pipe only to end the server's read loop
		select {
		case <-exited:
		case <-time.After(5 * time.Second):
			t.Fatal("connection goroutine still running after the client closed")
		}
	})
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
