package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"strconv"
	"time"

	"ktpm/internal/server"
)

var hashSeed = maphash.MakeSeed()

// newClient returns an HTTP client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// reply is what the load generator keeps of one /query answer.
type reply struct {
	status    int
	hash      uint64  // of the compacted "matches" array
	elapsedMS float64 // the server's own elapsed_ms
}

// getQuery sends GET /query and reduces the answer to a reply. buf is
// reused across calls by one connection's goroutine.
func getQuery(c *http.Client, addr, escaped string, k int, buf *bytes.Buffer) (reply, error) {
	resp, err := c.Get("http://" + addr + "/query?q=" + escaped + "&k=" + strconv.Itoa(k))
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return reply{status: resp.StatusCode}, err
	}
	r := reply{status: resp.StatusCode}
	if resp.StatusCode != http.StatusOK {
		return r, nil
	}
	body := buf.Bytes()
	r.hash, err = matchesHash(body)
	if err != nil {
		return r, err
	}
	r.elapsedMS, err = jsonNumber(body, `"elapsed_ms":`)
	return r, err
}

var (
	matchesKey = []byte(`"matches":`)
	cachedKey  = []byte(`"cached":`)
)

// matchesHash hashes the response's matches array with all whitespace
// removed, which is exactly json.Marshal's encoding of the same
// []server.MatchJSON (the server indents its output).
func matchesHash(body []byte) (uint64, error) {
	i := bytes.Index(body, matchesKey)
	if i < 0 {
		return 0, fmt.Errorf("response has no matches")
	}
	rest := body[i+len(matchesKey):]
	j := bytes.Index(rest, cachedKey)
	if j < 0 {
		return 0, fmt.Errorf("response has no cached flag after matches")
	}
	rest = rest[:j]
	out := make([]byte, 0, len(rest))
	for _, b := range rest {
		if b != ' ' && b != '\n' && b != '\t' && b != '\r' {
			out = append(out, b)
		}
	}
	out = bytes.TrimSuffix(out, []byte(","))
	return maphash.Bytes(hashSeed, out), nil
}

// referenceHash is matchesHash of the answer a server would send for ms.
func referenceHash(ms []server.MatchJSON) uint64 {
	if ms == nil {
		ms = []server.MatchJSON{}
	}
	b, _ := json.Marshal(ms)
	return maphash.Bytes(hashSeed, b)
}

// jsonNumber parses the number following key in body.
func jsonNumber(body []byte, key string) (float64, error) {
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return 0, fmt.Errorf("response has no %s", key)
	}
	rest := bytes.TrimLeft(body[i+len(key):], " ")
	j := 0
	for j < len(rest) && (rest[j] == '.' || rest[j] == '-' || rest[j] == '+' || rest[j] == 'e' || rest[j] == 'E' || (rest[j] >= '0' && rest[j] <= '9')) {
		j++
	}
	return strconv.ParseFloat(string(rest[:j]), 64)
}

// ingest posts one single-edge batch and returns its LSN.
func ingest(c *http.Client, addr string, from, to, w int32) (uint64, int, error) {
	body := fmt.Sprintf(`{"edges":[{"from":%d,"to":%d,"w":%d}]}`, from, to, w)
	resp, err := c.Post("http://"+addr+"/ingest", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var out server.IngestResponse
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return 0, resp.StatusCode, nil
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, resp.StatusCode, err
	}
	return out.LSN, resp.StatusCode, nil
}

// fetchStats reads /stats.
func fetchStats(c *http.Client, addr string) (*server.StatsResponse, error) {
	resp, err := c.Get("http://" + addr + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/stats: status %d", resp.StatusCode)
	}
	var st server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}
