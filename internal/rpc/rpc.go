// Package rpc is a minimal request/response RPC layer over a
// transport.Network, used for the control plane: the ClientProtocol
// (create / addBlock / complete / renewLease) and DatanodeProtocol
// (register / heartbeat / blockReceived / recoverBlock) of the namenode.
//
// Messages are length-framed JSON. Calls multiplex over one connection;
// the server dispatches each request on its own goroutine, so slow
// handlers do not head-of-line block heartbeats.
package rpc

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/bufpool"
	"repro/internal/clock"
	"repro/internal/transport"
)

// MaxMessage bounds one RPC frame.
const MaxMessage = 4 << 20

type request struct {
	Seq    uint64          `json:"seq"`
	Method string          `json:"method"`
	Body   json.RawMessage `json:"body,omitempty"`
}

type response struct {
	Seq  uint64          `json:"seq"`
	Err  string          `json:"err,omitempty"`
	Body json.RawMessage `json:"body,omitempty"`
}

func writeFrame(w io.Writer, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if len(payload) > MaxMessage {
		return fmt.Errorf("rpc: message of %d bytes exceeds max", len(payload))
	}
	// Assemble length prefix + payload in one pooled buffer so the frame
	// leaves in a single transport write (there is no bufio on RPC conns;
	// two writes here meant two transport round trips per message).
	bp := bufpool.GetCap(4 + len(payload))
	defer bufpool.Put(bp)
	buf := binary.BigEndian.AppendUint32(*bp, uint32(len(payload)))
	buf = append(buf, payload...)
	*bp = buf
	_, err = w.Write(buf)
	return err
}

func readFrame(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxMessage {
		return fmt.Errorf("rpc: incoming message of %d bytes exceeds max", n)
	}
	// The decode buffer is pooled: json.Unmarshal copies everything it
	// keeps (json.RawMessage included), so nothing aliases it after.
	bp := bufpool.Get(int(n))
	defer bufpool.Put(bp)
	buf := *bp
	if _, err := io.ReadFull(r, buf); err != nil {
		return err
	}
	return json.Unmarshal(buf, v)
}

// Handler processes one request body and returns a response value.
type Handler func(body []byte) (any, error)

// Observer receives one callback per handled request with the method
// name, the wall-clock handler duration, and whether the handler (or
// dispatch) failed. Implementations must be concurrency-safe; they run
// on the per-request handler goroutine.
type Observer func(method string, d time.Duration, errored bool)

// Server dispatches named methods.
type Server struct {
	mu       sync.RWMutex
	handlers map[string]Handler
	observer Observer
	listener transport.Listener
	wg       sync.WaitGroup
	closed   chan struct{}
}

// NewServer returns an empty server; register handlers before Serve.
func NewServer() *Server {
	return &Server{
		handlers: make(map[string]Handler),
		closed:   make(chan struct{}),
	}
}

// RegisterFunc installs a raw handler for method.
func (s *Server) RegisterFunc(method string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.handlers[method]; dup {
		panic("rpc: duplicate handler for " + method)
	}
	s.handlers[method] = h
}

// SetObserver installs fn to be notified of every handled request (RPC
// latency attribution). Install it before Serve; nil disables.
func (s *Server) SetObserver(fn Observer) {
	s.mu.Lock()
	s.observer = fn
	s.mu.Unlock()
}

// HandlerFor adapts a typed method function into a raw Handler: the
// request body decodes into Req and the returned Resp encodes into the
// response body. It is exported so a server can keep its methods in one
// registration table (see RegisterFunc).
func HandlerFor[Req, Resp any](method string, fn func(Req) (Resp, error)) Handler {
	return func(body []byte) (any, error) {
		var req Req
		if len(body) > 0 {
			if err := json.Unmarshal(body, &req); err != nil {
				return nil, fmt.Errorf("rpc: bad %s request: %w", method, err)
			}
		}
		return fn(req)
	}
}

// Handle installs a typed handler for method (see HandlerFor).
func Handle[Req, Resp any](s *Server, method string, fn func(Req) (Resp, error)) {
	s.RegisterFunc(method, HandlerFor(method, fn))
}

// Serve accepts connections on l until the listener closes. It returns
// after the accept loop exits; in-flight connections drain in background
// goroutines tracked by Close.
func (s *Server) Serve(l transport.Listener) {
	s.listener = l
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// Close stops the listener and waits for connection goroutines.
func (s *Server) Close() {
	select {
	case <-s.closed:
		return
	default:
		close(s.closed)
	}
	if s.listener != nil {
		s.listener.Close()
	}
	s.wg.Wait()
}

func (s *Server) serveConn(conn transport.Conn) {
	defer conn.Close()
	var writeMu sync.Mutex
	var handlerWG sync.WaitGroup
	defer handlerWG.Wait()
	for {
		var req request
		if err := readFrame(conn, &req); err != nil {
			return
		}
		s.mu.RLock()
		h := s.handlers[req.Method]
		observer := s.observer
		s.mu.RUnlock()
		handlerWG.Add(1)
		go func(req request) {
			defer handlerWG.Done()
			var start time.Time
			if observer != nil {
				start = time.Now()
			}
			resp := response{Seq: req.Seq}
			if h == nil {
				resp.Err = "rpc: unknown method " + req.Method
			} else if result, err := h(req.Body); err != nil {
				resp.Err = err.Error()
			} else if result != nil {
				body, err := json.Marshal(result)
				if err != nil {
					resp.Err = "rpc: encode response: " + err.Error()
				} else {
					resp.Body = body
				}
			}
			if observer != nil {
				observer(req.Method, time.Since(start), resp.Err != "")
			}
			writeMu.Lock()
			defer writeMu.Unlock()
			_ = writeFrame(conn, resp) // a broken conn ends the read loop
		}(req)
	}
}

// ErrShutdown is returned by calls on a closed client.
var ErrShutdown = errors.New("rpc: client is shut down")

// RemoteError is a server-side failure surfaced to the caller.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return e.Msg }

// Client issues calls over a single multiplexed connection.
type Client struct {
	conn    transport.Conn
	writeMu sync.Mutex

	mu      sync.Mutex
	seq     uint64
	pending map[uint64]chan response
	closed  bool
	err     error
}

// Dial connects local to the server at remote over net.
func Dial(net transport.Network, local, remote string) (*Client, error) {
	conn, err := net.Dial(local, remote)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an already-established connection (e.g. one made with
// transport.DialTimeout) as an RPC client.
func NewClient(conn transport.Conn) *Client {
	c := &Client{
		conn:    conn,
		pending: make(map[uint64]chan response),
	}
	go c.readLoop()
	return c
}

func (c *Client) readLoop() {
	for {
		var resp response
		if err := readFrame(c.conn, &resp); err != nil {
			c.shutdown(err)
			return
		}
		c.mu.Lock()
		ch := c.pending[resp.Seq]
		delete(c.pending, resp.Seq)
		c.mu.Unlock()
		if ch != nil {
			ch <- resp
		}
	}
}

func (c *Client) shutdown(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	if err == nil {
		err = ErrShutdown
	}
	c.err = err
	for seq, ch := range c.pending {
		delete(c.pending, seq)
		ch <- response{Seq: seq, Err: err.Error()}
	}
	c.conn.Close()
}

// Close tears the connection down; pending calls fail.
func (c *Client) Close() { c.shutdown(ErrShutdown) }

// ErrCallTimeout is returned by CallTimeout when the server does not
// respond within the budget. It satisfies transport.IsTimeout.
var ErrCallTimeout error = &callTimeoutError{}

type callTimeoutError struct{}

func (*callTimeoutError) Error() string   { return "rpc: call timed out" }
func (*callTimeoutError) Timeout() bool   { return true }
func (*callTimeoutError) Temporary() bool { return true }

// Call invokes method with arg and decodes the result into reply (which
// may be nil for methods without results). It waits for the response
// indefinitely; use CallTimeout to bound the wait.
func (c *Client) Call(method string, arg, reply any) error {
	return c.CallTimeout(method, arg, reply, 0, nil)
}

// CallTimeout is Call with a response deadline measured on clk: if the
// server has not answered within timeout, the call fails with
// ErrCallTimeout. The request stays pending — a late response is
// discarded by the read loop — and the connection remains usable, so a
// slow namenode does not force a reconnect. timeout <= 0 or nil clk
// waits forever.
func (c *Client) CallTimeout(method string, arg, reply any, timeout time.Duration, clk clock.Clock) error {
	var body json.RawMessage
	if arg != nil {
		b, err := json.Marshal(arg)
		if err != nil {
			return fmt.Errorf("rpc: encode %s request: %w", method, err)
		}
		body = b
	}

	ch := make(chan response, 1)
	c.mu.Lock()
	if c.closed {
		err := c.err
		c.mu.Unlock()
		return err
	}
	c.seq++
	seq := c.seq
	c.pending[seq] = ch
	c.mu.Unlock()

	c.writeMu.Lock()
	err := writeFrame(c.conn, request{Seq: seq, Method: method, Body: body})
	c.writeMu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, seq)
		c.mu.Unlock()
		c.shutdown(err)
		return err
	}

	var resp response
	if timeout > 0 && clk != nil {
		select {
		case resp = <-ch:
		case <-clk.After(timeout):
			// Abandon the call: drop the pending entry so the read loop
			// discards the late response instead of blocking on a channel
			// nobody reads (ch is buffered, but keep the map clean).
			c.mu.Lock()
			delete(c.pending, seq)
			c.mu.Unlock()
			return fmt.Errorf("rpc: %s: %w", method, ErrCallTimeout)
		}
	} else {
		resp = <-ch
	}
	if resp.Err != "" {
		return &RemoteError{Msg: resp.Err}
	}
	if reply != nil && len(resp.Body) > 0 {
		if err := json.Unmarshal(resp.Body, reply); err != nil {
			return fmt.Errorf("rpc: decode %s reply: %w", method, err)
		}
	}
	return nil
}
