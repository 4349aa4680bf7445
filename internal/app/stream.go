// Package app provides application models on top of the MPTCP connection.
// The paper's future work names "energy-efficient designs for multimedia
// applications over MPTCP"; Stream implements that workload — a paced
// media source with a playback buffer — so the algorithms can be compared
// on streaming metrics (rebuffering, buffer health) as well as energy.
package app

import (
	"mptcpsim/internal/mptcp"
	"mptcpsim/internal/sim"
)

// StreamConfig parameterizes a media session.
type StreamConfig struct {
	// BitrateBps is the media encoding rate the source produces and the
	// player consumes.
	BitrateBps int64
	// Chunk is the production/playback granularity (default 100 ms).
	Chunk sim.Time
	// InitialBuffer is how much media the player buffers before starting
	// (default 2 s).
	InitialBuffer sim.Time
	// ResumeBuffer is how much media must accumulate after a stall before
	// playback resumes (default 1 s).
	ResumeBuffer sim.Time
}

func (c StreamConfig) withDefaults() StreamConfig {
	if c.BitrateBps == 0 {
		c.BitrateBps = 4_000_000
	}
	if c.Chunk == 0 {
		c.Chunk = 100 * sim.Millisecond
	}
	if c.InitialBuffer == 0 {
		c.InitialBuffer = 2 * sim.Second
	}
	if c.ResumeBuffer == 0 {
		c.ResumeBuffer = sim.Second
	}
	return c
}

// Stream drives an app-limited connection as a live media session and
// plays the delivered bytes out at the media rate, tracking stalls.
type Stream struct {
	eng  *sim.Engine
	cfg  StreamConfig
	conn *mptcp.Conn

	playing     bool
	started     bool
	startedAt   sim.Time
	playedBytes float64

	rebuffers    int
	stallSince   sim.Time
	stalledTotal sim.Time

	ticker sim.Ticker
}

// NewStream wraps conn (which must have been created with AppLimited set)
// in a media session.
func NewStream(eng *sim.Engine, conn *mptcp.Conn, cfg StreamConfig) *Stream {
	s := &Stream{eng: eng, cfg: cfg.withDefaults(), conn: conn}
	s.ticker = sim.MakeTicker(eng, s.cfg.Chunk, s.tick)
	return s
}

// Start begins producing and playing.
func (s *Stream) Start() {
	s.conn.Start()
	s.ticker.Start()
}

// Stop halts the session and cancels its pending chunk.
func (s *Stream) Stop() { s.ticker.Stop() }

func (s *Stream) tick() {
	dt := s.cfg.Chunk
	// Produce the next chunk of media.
	s.conn.Produce(int64(float64(s.cfg.BitrateBps) * dt.Seconds() / 8))

	delivered := float64(s.conn.AckedBytes())
	bufferBytes := delivered - s.playedBytes
	bytesPerSec := float64(s.cfg.BitrateBps) / 8

	switch {
	case !s.started:
		if bufferBytes >= bytesPerSec*s.cfg.InitialBuffer.Seconds() {
			s.started = true
			s.playing = true
			s.startedAt = s.eng.Now()
		}
	case s.playing:
		need := bytesPerSec * dt.Seconds()
		if bufferBytes >= need {
			s.playedBytes += need
		} else {
			s.playing = false
			s.rebuffers++
			s.stallSince = s.eng.Now()
		}
	default: // stalled
		if bufferBytes >= bytesPerSec*s.cfg.ResumeBuffer.Seconds() {
			s.playing = true
			s.stalledTotal += s.eng.Now() - s.stallSince
		}
	}
}

// Started reports whether playback has begun.
func (s *Stream) Started() bool { return s.started }

// StartupDelay returns the time from Start to first playback (zero if
// playback never began).
func (s *Stream) StartupDelay() sim.Time { return s.startedAt }

// Rebuffers returns the number of playback stalls.
func (s *Stream) Rebuffers() int { return s.rebuffers }

// StalledTime returns the total time spent stalled (closed stalls only;
// an ongoing stall is counted up to now).
func (s *Stream) StalledTime() sim.Time {
	total := s.stalledTotal
	if s.started && !s.playing {
		total += s.eng.Now() - s.stallSince
	}
	return total
}

// PlayedSeconds returns the media time played out so far.
func (s *Stream) PlayedSeconds() float64 {
	return s.playedBytes * 8 / float64(s.cfg.BitrateBps)
}

// BufferSeconds returns the current playback buffer depth in media time.
func (s *Stream) BufferSeconds() float64 {
	return (float64(s.conn.AckedBytes()) - s.playedBytes) * 8 / float64(s.cfg.BitrateBps)
}

// RebufferRatio returns stalled time over elapsed wall time since playback
// started (0 before playback).
func (s *Stream) RebufferRatio() float64 {
	if !s.started {
		return 0
	}
	elapsed := s.eng.Now() - s.startedAt
	if elapsed <= 0 {
		return 0
	}
	return s.StalledTime().Seconds() / elapsed.Seconds()
}
