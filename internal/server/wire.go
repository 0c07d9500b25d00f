// Wire surface for the fleet router (internal/router): exported aliases of
// the server's request/response types plus the helpers needed to speak the
// same protocol. The router is a gqbed-compatible front end — it decodes
// shard responses and encodes merged ones with THESE types, so the two
// processes can never drift apart on the wire format. Nothing here widens
// the server's behavior; it only names existing unexported pieces.

package server

import (
	"bytes"
	"net/http"

	"gqbe"
	"gqbe/internal/obs"
)

// Exported aliases of the wire types. Aliases (not copies): a field added to
// a response struct is immediately visible to the router, and a value
// decoded by the router is the same type the server encodes.
type (
	// QueryRequest is the POST /v1/query body.
	QueryRequest = queryRequest
	// QueryResponse is the POST /v1/query success body.
	QueryResponse = queryResponse
	// AnswerJSON is one ranked answer in a response.
	AnswerJSON = answerJSON
	// StatsJSON is the response's stats section.
	StatsJSON = statsJSON
	// ErrorBody is the uniform error envelope.
	ErrorBody = errorBody
	// ErrorDetail is the code/message payload of ErrorBody.
	ErrorDetail = errorDetail
	// ExplainJSON is the POST /v1/query:explain success body.
	ExplainJSON = explainResponse
	// SpanJSON is one span of an explain trace tree.
	SpanJSON = spanJSON
	// ExplainServingJSON is the serving-stack section of an explain body.
	ExplainServingJSON = explainServing
)

// MaxBodyBytes is the query body-size limit, shared so the router enforces
// the same envelope policy as the daemons behind it.
const MaxBodyBytes = maxBodyBytes

// Normalize validates the request and resolves every option default,
// returning the tuples and engine options a server would run it with. This
// is the exported face of the per-request normalization /v1/query goes
// through; the router uses it to validate before fan-out (rejecting bad
// requests without burning a round trip) and to read the resolved k its
// merge cuts at.
func (q *queryRequest) Normalize() ([][]string, gqbe.Options, error) {
	return q.normalize()
}

// CacheKey encodes a normalized request as the server's canonical cache-key
// string (entity names length-prefixed, options appended; shard identity
// excluded — it is fixed per daemon).
func CacheKey(tuples [][]string, o gqbe.Options) string {
	return cacheKeyFor(tuples, o)
}

// WriteJSON writes v as the JSON response body with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) { writeJSON(w, status, v) }

// WriteError writes the uniform error envelope.
func WriteError(w http.ResponseWriter, status int, code, message string) {
	writeError(w, status, code, message)
}

// DecodeBody decodes r's JSON body into dst under the byte limit, rejecting
// unknown fields; on failure the error response is already written and
// false is returned.
func DecodeBody(w http.ResponseWriter, r *http.Request, limit int64, dst any) bool {
	return decodeBody(w, r, limit, dst)
}

// ValidRequestID reports whether an inbound X-Request-ID value is safe to
// adopt (1..64 bytes of [A-Za-z0-9._-]).
func ValidRequestID(id string) bool { return validRequestID(id) }

// Prometheus exposition helpers, exported so the router's /metrics speaks
// the same hand-rolled 0.0.4 text format as the daemon's.

// PromHeader writes a family's HELP/TYPE preamble.
func PromHeader(b *bytes.Buffer, name, help, typ string) { promHeader(b, name, help, typ) }

// PromCounter writes a complete single-sample counter family.
func PromCounter(b *bytes.Buffer, name, help string, v uint64) { promCounter(b, name, help, v) }

// PromGauge writes a complete single-sample gauge family.
func PromGauge(b *bytes.Buffer, name, help string, v float64) { promGauge(b, name, help, v) }

// PromHistogram writes a complete histogram family from an obs snapshot.
func PromHistogram(b *bytes.Buffer, name, help string, snap obs.HistSnapshot) {
	promHistogram(b, name, help, snap)
}
