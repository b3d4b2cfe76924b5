package main

import (
	"fmt"
	"io"
	"math"
	"net"
	"time"
)

// yardstick is a fixed piece of work that shares no code with the
// program, timed before every measured cycle and after the last, so that
// a run knows how fast its host was while it measured. Half of it
// computes the way the scoring path does (the rank of a value in
// 144-value rows scattered over 16 MB), half of it hands off the way the
// ingest path does (1200-byte round trips over loopback TCP between two
// goroutines). README.md, Noise, says what it is for and how well it
// works.
type yardstick struct {
	data  []float64
	ln    net.Listener
	conn  net.Conn
	frame []byte
}

const (
	yardRows   = 25000 // rows ranked a probe
	yardTrips  = 1200  // round trips a probe
	yardRowLen = 144
	// yardRefMs is what a probe takes on the 2-core box the numbers were
	// first taken on, in a quiet stretch: about half of it in each half.
	// It only fixes the scale of the host-speed factor.
	yardRefMs = 17.0
)

func newYardstick() (*yardstick, error) {
	y := &yardstick{data: make([]float64, 16<<20/8), frame: make([]byte, 1200)}
	x := uint64(88172645463325252)
	for i := range y.data {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		y.data[i] = float64(x % 1000003)
	}
	var err error
	if y.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	go y.echo()
	if y.conn, err = net.Dial("tcp", y.ln.Addr().String()); err != nil {
		y.ln.Close()
		return nil, err
	}
	return y, nil
}

// echo sends every frame back; it ends when the yardstick is closed.
func (y *yardstick) echo() {
	c, err := y.ln.Accept()
	if err != nil {
		return
	}
	defer c.Close()
	buf := make([]byte, len(y.frame))
	for {
		if _, err := io.ReadFull(c, buf); err != nil {
			return
		}
		if _, err := c.Write(buf); err != nil {
			return
		}
	}
}

// probe does the fixed work once and returns how long it took, in ms.
func (y *yardstick) probe() (float64, error) {
	start := time.Now()
	x, acc := uint64(12345), 0.0
	for i := 0; i < yardRows; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		at := int((x >> 20) % uint64(len(y.data)-yardRowLen))
		row := y.data[at : at+yardRowLen]
		rank := 0
		for _, v := range row {
			if v > row[0] {
				rank++
			}
		}
		acc += math.Log(float64(rank + 1))
	}
	y.frame[0] = byte(acc) // keeps the loop above from being optimised away
	for i := 0; i < yardTrips; i++ {
		if _, err := y.conn.Write(y.frame); err != nil {
			return 0, fmt.Errorf("yardstick: %w", err)
		}
		if _, err := io.ReadFull(y.conn, y.frame); err != nil {
			return 0, fmt.Errorf("yardstick: %w", err)
		}
	}
	return time.Since(start).Seconds() * 1e3, nil
}

func (y *yardstick) close() {
	y.conn.Close()
	y.ln.Close()
}
