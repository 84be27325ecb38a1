package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
)

// The reference server is the yardstick every latency and CPU metric is
// divided by. It is benchmark code, not the program under test: a third
// process that shares the loopback socket path, the scheduler and the CPUs
// with the daemon, so whatever the host does to one it does to the other at
// the same moment. GET /ref?n=W&bytes=B runs a select→fetch→sum over W
// tuples of a fixed in-memory int64 array — deliberately the same
// branch-and-append shape as the engine's scan kernels, so both sides react
// alike when the host changes speed — and replies with B filler bytes.
// It must not change in a PR that touches anything outside bench/.

const refTuples = 1 << 20

type refServer struct {
	data   []int64
	oids   []int64
	vals   []int64
	filler []byte
}

func newRefServer() *refServer {
	s := &refServer{
		data:   make([]int64, refTuples),
		oids:   make([]int64, 0, refTuples),
		vals:   make([]int64, 0, refTuples),
		filler: make([]byte, 1<<20),
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := range s.data {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		s.data[i] = int64(x%50) + 1
	}
	for i := range s.filler {
		s.filler[i] = byte('a' + i%26)
	}
	return s
}

// scan selects the tuples of data[:n] within [1,24], fetches them and sums
// the fetched values; n beyond the array wraps around.
func (s *refServer) scan(n int) int64 {
	var sum int64
	for n > 0 {
		part := s.data
		if n < len(part) {
			part = part[:n]
		}
		n -= len(part)
		oids := s.oids[:0]
		for i, v := range part {
			if v >= 1 && v <= 24 {
				oids = append(oids, int64(i))
			}
		}
		vals := s.vals[:0]
		for _, o := range oids {
			vals = append(vals, part[o])
		}
		for _, v := range vals {
			sum += v
		}
	}
	return sum
}

func (s *refServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	n, _ := strconv.Atoi(q.Get("n"))
	b, _ := strconv.Atoi(q.Get("bytes"))
	if n < 0 || b < 0 || b > len(s.filler) {
		http.Error(w, "bad n or bytes", http.StatusBadRequest)
		return
	}
	w.Header().Set("X-Ref-Sum", strconv.FormatInt(s.scan(n), 10))
	w.Header().Set("Content-Length", strconv.Itoa(b))
	w.Write(s.filler[:b])
}

// runRefServer serves until the process is signalled. It prints the address
// it bound on its first line of output so the parent needs no fixed port.
func runRefServer() int {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "refserver:", err)
		return 1
	}
	s := newRefServer()
	fmt.Println(ln.Addr().String())
	// The scratch buffers are shared, so requests serialize. Only the
	// writer's reference request can meet the reader's, once per mutation.
	var mu sync.Mutex
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		s.ServeHTTP(w, r)
	})
	if err := http.Serve(ln, h); err != nil {
		fmt.Fprintln(os.Stderr, "refserver:", err)
		return 1
	}
	return 0
}
