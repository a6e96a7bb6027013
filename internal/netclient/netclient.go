// Package netclient drives a remote netserve gateway over TCP. A Client
// implements the same serving interfaces the in-process stack does —
// Serve/Stats, plus the sharded and batched driver surfaces — so the
// concurrent load driver (and with it the public liveupdate.Drive, batching
// included) works unchanged against a fleet in another process.
//
// Client-side shards are lanes: the client owns Conns independent HTTP
// connections, ShardOf hashes a sample's sparse ids to a lane, and the
// driver's per-shard FIFO queues become per-connection pipelines. Server-side
// routing still happens on the server — a lane is a transport, not a
// replica — so lane count tunes client parallelism without changing where
// requests land.
//
// # Resilience
//
// The client survives more than back-pressure:
//
//   - A 429 from the gateway is not an error but shedding. The client sleeps
//     out the server's Retry-After hint (millisecond-granular via
//     X-Retry-After-Ms, clamped to [0, MaxRetryWait]), jittered upward so
//     lanes shed together do not retry together, and retries, counting
//     every shed it absorbed in Shed429.
//   - Transport errors (dial failures, resets, timeouts), 5xx responses, and
//     every 4xx except 413/422 (a request damaged in flight is
//     indistinguishable from a malformed one — a corrupted request line can
//     surface as 400, 404, or 405; a genuinely bad request just exhausts the
//     budget) retry with jittered exponential backoff from BackoffBase up to
//     MaxRetryWait, rotating through failover addresses.
//   - Each lane carries a circuit breaker: BreakerThreshold consecutive
//     failures open it, attempts then wait out BreakerCooldown before a
//     single half-open probe; the probe's outcome closes or re-opens it.
//     A 429 counts as breaker success — the server is alive, just shedding.
//   - Every attempt carries a per-attempt deadline (Timeout) and honors the
//     context bound via BindContext: cancellation interrupts back-off sleeps,
//     breaker cooldowns, and in-flight attempts alike.
//
// All retries share one budget (Retries attempts per request); exhausting it
// — or cancellation — counts the request in GaveUp.
package netclient

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"liveupdate/internal/core"
	"liveupdate/internal/netserve"
	"liveupdate/internal/obs"
	"liveupdate/internal/tensor"
	"liveupdate/internal/trace"
)

// Config configures Dial.
type Config struct {
	// Conns is the number of client lanes (independent HTTP connections and
	// driver shards). 0 defaults to 1.
	Conns int

	// Timeout bounds each HTTP attempt. 0 defaults to 30s.
	Timeout time.Duration

	// Retries is the number of times one request retries — after a shed, a
	// transport error, or a retryable status — before giving up. 0 defaults
	// to 64; negative is invalid.
	Retries int

	// MaxRetryWait caps how long a single back-off sleeps, for Retry-After
	// hints and exponential backoff alike. 0 defaults to 250ms.
	MaxRetryWait time.Duration

	// BackoffBase is the first exponential back-off step for transport-level
	// retries; step k sleeps ~BackoffBase<<k (jittered, capped at
	// MaxRetryWait). 0 defaults to 5ms.
	BackoffBase time.Duration

	// BreakerThreshold opens a lane's circuit breaker after this many
	// consecutive transport failures. 0 defaults to 5; negative is invalid.
	BreakerThreshold int

	// BreakerCooldown is how long an open breaker rejects attempts before
	// allowing a half-open probe. 0 defaults to 200ms.
	BreakerCooldown time.Duration

	// Failover lists additional gateway addresses. A transport failure
	// rotates the lane to the next address; the handshake still runs against
	// the primary.
	Failover []string

	// Seed drives back-off jitter (wall-clock only — jitter never touches
	// virtual-time statistics). 0 means a fixed default stream.
	Seed uint64

	// Telemetry, when set, receives the client's fault-tolerance instruments
	// (liveupdate_client_retries_total, breaker-state gauge, ...).
	Telemetry *obs.Telemetry
}

func (c Config) withDefaults() (Config, error) {
	switch {
	case c.Conns < 0:
		return c, fmt.Errorf("netclient: Conns must be non-negative, got %d", c.Conns)
	case c.Timeout < 0:
		return c, fmt.Errorf("netclient: Timeout must be non-negative, got %v", c.Timeout)
	case c.Retries < 0:
		return c, fmt.Errorf("netclient: Retries must be non-negative, got %d", c.Retries)
	case c.MaxRetryWait < 0:
		return c, fmt.Errorf("netclient: MaxRetryWait must be non-negative, got %v", c.MaxRetryWait)
	case c.BackoffBase < 0:
		return c, fmt.Errorf("netclient: BackoffBase must be non-negative, got %v", c.BackoffBase)
	case c.BreakerThreshold < 0:
		return c, fmt.Errorf("netclient: BreakerThreshold must be non-negative, got %d", c.BreakerThreshold)
	case c.BreakerCooldown < 0:
		return c, fmt.Errorf("netclient: BreakerCooldown must be non-negative, got %v", c.BreakerCooldown)
	}
	if c.Conns == 0 {
		c.Conns = 1
	}
	if c.Timeout == 0 {
		c.Timeout = 30 * time.Second
	}
	if c.Retries == 0 {
		c.Retries = 64
	}
	if c.MaxRetryWait == 0 {
		c.MaxRetryWait = 250 * time.Millisecond
	}
	if c.BackoffBase == 0 {
		c.BackoffBase = 5 * time.Millisecond
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown == 0 {
		c.BreakerCooldown = 200 * time.Millisecond
	}
	return c, nil
}

// Breaker states (the breaker-state gauge exports the open-lane count).
const (
	breakerClosed int32 = iota
	breakerOpen
	breakerHalfOpen
)

// breaker is a per-lane circuit breaker. Lanes are driven by one goroutine
// at a time (the driver's lane ownership), but state is read concurrently by
// the metrics gauge, so transitions stay behind a mutex.
type breaker struct {
	mu        sync.Mutex
	state     int32
	fails     int
	openUntil time.Time
	threshold int
	cooldown  time.Duration
}

// wait returns how long the caller must sleep before its attempt may
// proceed. An open breaker returns the remaining cooldown and moves to
// half-open (the caller's attempt is the probe).
func (b *breaker) wait(now time.Time) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != breakerOpen {
		return 0
	}
	d := b.openUntil.Sub(now)
	if d < 0 {
		d = 0
	}
	b.state = breakerHalfOpen
	return d
}

func (b *breaker) success() {
	b.mu.Lock()
	b.state = breakerClosed
	b.fails = 0
	b.mu.Unlock()
}

func (b *breaker) failure(now time.Time) {
	b.mu.Lock()
	b.fails++
	if b.state == breakerHalfOpen || b.fails >= b.threshold {
		b.state = breakerOpen
		b.openUntil = now.Add(b.cooldown)
	}
	b.mu.Unlock()
}

func (b *breaker) snapshot() int32 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// lane is one client shard: a private HTTP transport, breaker, jitter RNG,
// and failover cursor.
type lane struct {
	hc   *http.Client
	brk  breaker
	mu   sync.Mutex // guards rng and addr
	rng  *tensor.RNG
	addr int // index into Client.addrs
}

// Client is a remote Server. Use one lane (shard) from one goroutine at a
// time — exactly the discipline the load driver's lane ownership provides;
// Stats and Serve are safe for concurrent use.
type Client struct {
	addrs []string // base URLs; addrs[0] is the primary
	cfg   Config
	info  netserve.Info
	lanes []*lane

	boundCtx atomic.Pointer[context.Context] // BindContext target for serve-path attempts

	shed429     atomic.Uint64         // 429 responses absorbed (then retried)
	transpRetry atomic.Uint64         // transport/5xx/400 retries
	gaveUp      atomic.Uint64         // requests abandoned (budget or cancellation)
	retryWait   atomic.Int64          // cumulative back-off, nanoseconds
	statsErr    atomic.Pointer[error] // most recent Stats() transport failure
}

// Dial connects to a netserve gateway, performs the /info handshake, and
// returns a Client with cfg.Conns lanes.
func Dial(addr string, cfg Config) (*Client, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	c := &Client{cfg: cfg, addrs: []string{normalizeAddr(addr)}}
	for _, fo := range cfg.Failover {
		c.addrs = append(c.addrs, normalizeAddr(fo))
	}
	jitter := tensor.NewRNG(cfg.Seed ^ 0x66617578) // decorrelate from model seeds
	for i := 0; i < cfg.Conns; i++ {
		c.lanes = append(c.lanes, &lane{
			// One Transport per lane: lanes must not share pooled
			// connections, or slow requests on one lane would head-of-line
			// block another.
			hc: &http.Client{
				Timeout: cfg.Timeout,
				Transport: &http.Transport{
					MaxIdleConns:        2,
					MaxIdleConnsPerHost: 2,
					IdleConnTimeout:     90 * time.Second,
				},
			},
			brk: breaker{threshold: cfg.BreakerThreshold, cooldown: cfg.BreakerCooldown},
			rng: jitter.Split(),
		})
	}
	// The handshake rides the same flaky wire as everything else, so it
	// retries with backoff too — bounded tighter than the request budget so
	// dialing a dead address still fails promptly.
	attempts := cfg.Retries
	if attempts > 8 {
		attempts = 8
	}
	var hErr error
	for attempt := 0; ; attempt++ {
		if hErr = c.handshake(); hErr == nil {
			break
		}
		if attempt >= attempts {
			return nil, hErr
		}
		time.Sleep(c.backoff(c.lanes[0], attempt))
	}
	c.registerMetrics(cfg.Telemetry.Registry())
	return c, nil
}

// handshake fetches /info on lane 0 and validates the protocol version.
func (c *Client) handshake() error {
	resp, err := c.lanes[0].hc.Get(c.addrs[0] + "/info")
	if err != nil {
		return fmt.Errorf("netclient: handshake: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("netclient: handshake: server returned %s", resp.Status)
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&c.info); err != nil {
		return fmt.Errorf("netclient: handshake: decoding /info: %w", err)
	}
	if c.info.Protocol != 1 {
		return fmt.Errorf("netclient: server speaks wire protocol %d, client speaks 1", c.info.Protocol)
	}
	return nil
}

func normalizeAddr(addr string) string {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimSuffix(addr, "/")
}

func (c *Client) registerMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc("liveupdate_client_retries_total",
		"Client request retries: shed (429) plus transport-level.",
		func() uint64 { return c.shed429.Load() + c.transpRetry.Load() })
	reg.CounterFunc("liveupdate_client_transport_retries_total",
		"Client retries caused by transport errors or retryable statuses.",
		c.TransportRetries)
	reg.CounterFunc("liveupdate_client_gaveup_total",
		"Requests the client abandoned after exhausting its retry budget.",
		c.GaveUp)
	reg.GaugeFunc("liveupdate_client_breaker_open",
		"Client lanes whose circuit breaker is currently open or probing.",
		func() float64 {
			open := 0
			for _, l := range c.lanes {
				if l.brk.snapshot() != breakerClosed {
					open++
				}
			}
			return float64(open)
		})
}

// BindContext attaches ctx to every subsequent serve-path attempt: per-attempt
// deadlines derive from it and back-off or breaker sleeps abort when it is
// cancelled. The driver binds its drive context here (via a type assertion)
// so a cancelled DriveContext never hangs in a retry sleep. Stats and
// FetchStats deliberately ignore the bound context — a post-drive stats
// fetch must survive the drive's own cancellation.
func (c *Client) BindContext(ctx context.Context) {
	if ctx == nil {
		c.boundCtx.Store(nil)
		return
	}
	c.boundCtx.Store(&ctx)
}

func (c *Client) ctx() context.Context {
	if p := c.boundCtx.Load(); p != nil {
		return *p
	}
	return context.Background()
}

// Info returns the server's handshake payload (profile name, server-side
// replica count, batch hint).
func (c *Client) Info() netserve.Info { return c.info }

// Shed429 returns how many 429 shed responses this client absorbed and
// retried — the client-side mirror of the server's shed counters.
func (c *Client) Shed429() uint64 { return c.shed429.Load() }

// TransportRetries returns how many retries were caused by transport errors
// or retryable statuses (5xx, serve-path 400), as opposed to 429 shedding.
func (c *Client) TransportRetries() uint64 { return c.transpRetry.Load() }

// GaveUp returns how many requests the client abandoned — retry budget
// exhausted or context cancelled. The third leg of the wire ledger:
// sent == completed + gave-up.
func (c *Client) GaveUp() uint64 { return c.gaveUp.Load() }

// RetryWait returns the cumulative time spent sleeping out back-off (shed
// hints, exponential backoff, and breaker cooldowns).
func (c *Client) RetryWait() time.Duration { return time.Duration(c.retryWait.Load()) }

// BreakerOpenLanes returns how many lanes currently have a non-closed
// breaker (open or half-open probe pending).
func (c *Client) BreakerOpenLanes() int {
	open := 0
	for _, l := range c.lanes {
		if l.brk.snapshot() != breakerClosed {
			open++
		}
	}
	return open
}

// Close releases idle connections on every lane.
func (c *Client) Close() {
	for _, l := range c.lanes {
		l.hc.CloseIdleConnections()
	}
}

// NumShards returns the client lane count: the driver treats each lane as an
// independently drivable shard.
func (c *Client) NumShards() int { return len(c.lanes) }

// ShardOf hashes a sample's sparse ids to a lane — deterministic for a fixed
// lane count, so the sequencer's routing never depends on timing. Samples
// with the same sparse signature ride the same connection, which keeps the
// driver's batch coalescing effective over the wire.
func (c *Client) ShardOf(s trace.Sample) int {
	h := fnv.New64a()
	var buf [4]byte
	for _, ids := range s.Sparse {
		for _, id := range ids {
			buf[0] = byte(id)
			buf[1] = byte(id >> 8)
			buf[2] = byte(id >> 16)
			buf[3] = byte(id >> 24)
			h.Write(buf[:])
		}
	}
	return int(h.Sum64() % uint64(len(c.lanes)))
}

// Serve scores one sample through the JSON endpoint on its hashed lane.
func (c *Client) Serve(s trace.Sample) (core.Response, error) {
	return c.ServeShard(c.ShardOf(s), s)
}

// ServeShard scores one sample on a specific lane via POST /serve (JSON).
func (c *Client) ServeShard(shard int, s trace.Sample) (core.Response, error) {
	body, err := json.Marshal(s)
	if err != nil {
		return core.Response{}, fmt.Errorf("netclient: encoding sample: %w", err)
	}
	data, err := c.post(shard, "/serve", "application/json", body)
	if err != nil {
		return core.Response{}, err
	}
	var resp core.Response
	if err := json.Unmarshal(data, &resp); err != nil {
		return core.Response{}, fmt.Errorf("netclient: decoding response: %w", err)
	}
	return resp, nil
}

// ServeShardBatch scores a coalesced run of samples on one lane via the
// binary POST /serve.bin fast path. resps must have the same length as
// samples and is filled in order.
func (c *Client) ServeShardBatch(shard int, samples []trace.Sample, resps []core.Response) error {
	if len(resps) != len(samples) {
		return fmt.Errorf("netclient: ServeShardBatch got %d response slots for %d samples", len(resps), len(samples))
	}
	if len(samples) == 0 {
		return nil
	}
	data, err := c.post(shard, "/serve.bin", "application/octet-stream",
		netserve.AppendBatch(make([]byte, 0, 64*len(samples)), samples))
	if err != nil {
		return err
	}
	decoded, err := netserve.DecodeResponses(data)
	if err != nil {
		return err
	}
	if len(decoded) != len(samples) {
		return fmt.Errorf("netclient: server returned %d responses for %d samples", len(decoded), len(samples))
	}
	copy(resps, decoded)
	return nil
}

// Stats fetches the server's statistics snapshot (wire admission ledger
// included). The Server interface has no error return, so a transport
// failure here yields a zero snapshot; LastStatsErr reports it.
func (c *Client) Stats() core.Stats {
	st, err := c.FetchStats()
	if err != nil {
		c.statsErr.Store(&err)
		return core.Stats{}
	}
	c.statsErr.Store(nil)
	return st
}

// FetchStats is Stats with the error: a GET /stats round trip.
func (c *Client) FetchStats() (core.Stats, error) {
	resp, err := c.lanes[0].hc.Get(c.addrs[0] + "/stats")
	if err != nil {
		return core.Stats{}, fmt.Errorf("netclient: fetching stats: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return core.Stats{}, fmt.Errorf("netclient: /stats returned %s", resp.Status)
	}
	var st core.Stats
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<24)).Decode(&st); err != nil {
		return core.Stats{}, fmt.Errorf("netclient: decoding stats: %w", err)
	}
	return netserve.RestoreStats(st), nil
}

// LastStatsErr returns the error of the most recent failed Stats() call, or
// nil if none failed since the last success.
func (c *Client) LastStatsErr() error {
	if p := c.statsErr.Load(); p != nil {
		return *p
	}
	return nil
}

// sleep blocks for d or until ctx is cancelled, billing the time slept to
// the retry-wait ledger either way.
func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	start := time.Now()
	t := time.NewTimer(d)
	defer t.Stop()
	defer func() { c.retryWait.Add(int64(time.Since(start))) }()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// backoff returns the jittered exponential delay for transport-retry step k:
// uniform in [w/2, w] where w = min(BackoffBase<<k, MaxRetryWait).
func (c *Client) backoff(l *lane, k int) time.Duration {
	w := c.cfg.MaxRetryWait
	if k < 32 {
		if stepped := c.cfg.BackoffBase << uint(k); stepped < w {
			w = stepped
		}
	}
	if w <= 0 {
		return 0
	}
	return w/2 + time.Duration(l.jitter()*float64(w/2))
}

// shedWait returns how long to sleep out a 429 whose Retry-After hint is
// hint (already clamped to MaxRetryWait, so never above the cap): uniform in
// [hint, 2·hint], capped at MaxRetryWait. Lanes shed by the same burst get
// the same hint; sleeping it exactly would send them back in lockstep, to
// be shed together again, and starve the unlucky ones.
func (c *Client) shedWait(l *lane, hint time.Duration) time.Duration {
	return min(hint+time.Duration(l.jitter()*float64(hint)), c.cfg.MaxRetryWait)
}

// jitter draws one uniform [0, 1) value from the lane's RNG.
func (l *lane) jitter() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rng.Float64()
}

// laneURL resolves the lane's current failover address; advance rotates it
// after a transport failure.
func (l *lane) laneURL(addrs []string, path string) string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return addrs[l.addr] + path
}

func (l *lane) advance(n int) {
	l.mu.Lock()
	l.addr = (l.addr + 1) % n
	l.mu.Unlock()
}

// post runs one request on a lane with the full resilience stack: breaker
// gate, per-attempt deadline, 429 absorption, and jittered-backoff retries
// with address failover for transport errors and every status except
// 200/413/422. Non-retryable statuses return an error carrying the server's
// JSON error body.
func (c *Client) post(shard int, path, contentType string, body []byte) ([]byte, error) {
	if shard < 0 || shard >= len(c.lanes) {
		return nil, fmt.Errorf("netclient: lane %d of %d", shard, len(c.lanes))
	}
	l := c.lanes[shard]
	ctx := c.ctx()
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > c.cfg.Retries {
			c.gaveUp.Add(1)
			return nil, fmt.Errorf("netclient: %s: gave up after %d attempts: %w", path, attempt, lastErr)
		}
		// An open breaker holds the attempt until cooldown, then lets it
		// through as the half-open probe. The driver aborts a drive on any
		// serve error, so the breaker waits instead of failing fast.
		if d := l.brk.wait(time.Now()); d > 0 {
			if err := c.sleep(ctx, d); err != nil {
				c.gaveUp.Add(1)
				return nil, fmt.Errorf("netclient: %s: cancelled in breaker cooldown: %w", path, err)
			}
		}
		data, status, hdr, err := c.attempt(ctx, l, path, contentType, body)
		switch {
		case err != nil:
			// Transport-level failure: breaker strike, rotate the failover
			// cursor, back off.
			l.brk.failure(time.Now())
			l.advance(len(c.addrs))
			lastErr = err
			c.transpRetry.Add(1)
			if serr := c.sleep(ctx, c.backoff(l, attempt)); serr != nil {
				c.gaveUp.Add(1)
				return nil, fmt.Errorf("netclient: %s: cancelled in backoff: %w", path, serr)
			}

		case status == http.StatusOK:
			l.brk.success()
			return data, nil

		case status == http.StatusTooManyRequests:
			// Shedding means the server is alive: breaker success.
			l.brk.success()
			c.shed429.Add(1)
			lastErr = fmt.Errorf("server shedding (429)")
			if serr := c.sleep(ctx, c.shedWait(l, retryAfter(hdr, c.cfg.MaxRetryWait))); serr != nil {
				c.gaveUp.Add(1)
				return nil, fmt.Errorf("netclient: %s: cancelled in shed wait: %w", path, serr)
			}

		case status == http.StatusRequestEntityTooLarge || status == http.StatusUnprocessableEntity:
			// The gateway understood the request and rejected it for what it
			// is: over the size cap, or validly framed but unservable.
			// Retrying an identical copy cannot succeed.
			c.gaveUp.Add(1)
			return nil, fmt.Errorf("netclient: %s: server returned %d: %s",
				path, status, strings.TrimSpace(string(data)))

		default:
			// Everything else retries. 5xx is server-side trouble and counts
			// as a breaker strike. Any other 4xx is what a request damaged in
			// flight looks like from the outside — a corrupted request line
			// can surface as 400, 404, or 405 — so it retries too, but the
			// server answered, so the breaker counts it a success. A
			// genuinely bad request just exhausts the retry budget.
			if status >= 500 {
				l.brk.failure(time.Now())
			} else {
				l.brk.success()
			}
			lastErr = fmt.Errorf("server returned %d: %s", status, strings.TrimSpace(string(data)))
			c.transpRetry.Add(1)
			if serr := c.sleep(ctx, c.backoff(l, attempt)); serr != nil {
				c.gaveUp.Add(1)
				return nil, fmt.Errorf("netclient: %s: cancelled in backoff: %w", path, serr)
			}
		}
	}
}

// attempt runs a single HTTP exchange with a per-attempt deadline derived
// from the bound context.
func (c *Client) attempt(ctx context.Context, l *lane, path, contentType string, body []byte) ([]byte, int, http.Header, error) {
	actx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost,
		l.laneURL(c.addrs, path), bytes.NewReader(body))
	if err != nil {
		return nil, 0, nil, fmt.Errorf("netclient: %s: %w", path, err)
	}
	req.Header.Set("Content-Type", contentType)
	// End-to-end integrity: the gateway rejects a body whose checksum does
	// not match with a retryable 400, so a frame corrupted in flight is
	// retried instead of being served as a silently different sample.
	req.Header.Set(netserve.BodyChecksumHeader, strconv.FormatUint(uint64(crc32.ChecksumIEEE(body)), 16))
	resp, err := l.hc.Do(req)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("netclient: %s: %w", path, err)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<26))
	resp.Body.Close()
	if err != nil {
		return nil, 0, nil, fmt.Errorf("netclient: %s: reading response: %w", path, err)
	}
	return data, resp.StatusCode, resp.Header, nil
}

// retryAfter extracts the back-off hint — the millisecond header when
// present, the standard whole-second header otherwise — hardened against
// hostile values: negative, non-numeric, and overflow-inducing inputs all
// clamp into [0, max], with 1ms as the floor for a parseable zero/absent
// hint. The clamp happens here (not at the call site) because an absurd
// X-Retry-After-Ms can overflow time.Duration multiplication into a
// negative value that would sail under any downstream cap.
func retryAfter(h http.Header, max time.Duration) time.Duration {
	if h == nil {
		return clampWait(time.Millisecond, max)
	}
	if ms := h.Get("X-Retry-After-Ms"); ms != "" {
		if v, err := strconv.ParseInt(ms, 10, 64); err == nil && v > 0 {
			if v > int64(max/time.Millisecond) {
				return max
			}
			return clampWait(time.Duration(v)*time.Millisecond, max)
		}
	}
	if s := h.Get("Retry-After"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			if v > int(max/time.Second)+1 {
				return max
			}
			return clampWait(time.Duration(v)*time.Second, max)
		}
	}
	return clampWait(time.Millisecond, max)
}

func clampWait(d, max time.Duration) time.Duration {
	if d < 0 {
		return 0
	}
	if d > max {
		return max
	}
	return d
}
