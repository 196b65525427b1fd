package service

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"sync"

	"replicatree/internal/core"
	"replicatree/internal/wire"
)

// DecodeSolveRequest decodes a POST /v2/solve body. A body in the
// canonical form (see package wire) is decoded in one pass; any other
// body, and any whose instance fails validation, is decoded by a
// json.Decoder, the reference, which alone decides what is accepted
// and what every error says. Like that decoder, it ignores whatever
// follows the first JSON value.
func DecodeSolveRequest(body []byte) (SolveRequestV2, error) {
	if req, ok := scanSolveRequest(body); ok {
		return req, nil
	}
	var req SolveRequestV2
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return SolveRequestV2{}, err
	}
	return req, nil
}

var solveKeys = []string{"solver", "instance", "policy", "budget", "timeout_ms", "certificate"}

// scanSolveRequest is DecodeSolveRequest's one-pass path; ok is false
// when the scanner declined.
func scanSolveRequest(body []byte) (req SolveRequestV2, ok bool) {
	s := wire.NewScanner(body)
	s.Object()
	var seen uint64
	for i := s.Field(solveKeys, &seen); i >= 0; i = s.Field(solveKeys, &seen) {
		switch i {
		case 0:
			req.Solver = s.String()
		case 1:
			req.Instance = core.ScanInstance(&s)
		case 2:
			req.Policy = s.String()
		case 3:
			req.Budget = s.Int(math.MinInt64, math.MaxInt64)
		case 4:
			req.TimeoutMS = s.Int(math.MinInt64, math.MaxInt64)
		case 5:
			req.Certificate = s.Bool()
		}
	}
	return req, s.End()
}

// maxPooledBody bounds both the buffers kept for reuse and how far a
// client's Content-Length may size one ahead of the bytes it sends.
const maxPooledBody = 4 << 20

var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// ReadBody reads a request body once, under the request-body cap, into
// a pooled buffer sized from Content-Length. On a read error, body
// holds the bytes read before it. Call release once nothing references
// body any more.
func ReadBody(w http.ResponseWriter, r *http.Request) (body []byte, release func(), err error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	release = func() {
		if buf.Cap() <= maxPooledBody {
			buf.Reset()
			bodyPool.Put(buf)
		}
	}
	if n := r.ContentLength; n > 0 && n <= maxPooledBody {
		buf.Grow(int(n) + bytes.MinRead) // room for the read that sees EOF
	}
	_, err = buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	return buf.Bytes(), release, err
}

// decodeSolveBody reads a /v2/solve body with ReadBody and decodes it
// with DecodeSolveRequest. When the read fails, a json.Decoder is fed
// the bytes read and then the read error, so the decode succeeds or
// fails exactly as it would have streaming from the body. It returns
// the HTTP status to use on failure.
func decodeSolveBody(w http.ResponseWriter, r *http.Request) (SolveRequestV2, int, error) {
	body, release, rerr := ReadBody(w, r)
	defer release()
	var req SolveRequestV2
	var err error
	if rerr != nil {
		stream := io.MultiReader(bytes.NewReader(body), errReader{rerr})
		err = json.NewDecoder(stream).Decode(&req)
	} else {
		req, err = DecodeSolveRequest(body)
	}
	if err != nil {
		status, err := bodyError(err)
		return SolveRequestV2{}, status, err
	}
	return req, http.StatusOK, nil
}

// errReader fails every read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }
