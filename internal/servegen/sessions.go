package servegen

import (
	"fmt"
	"strconv"
	"time"
)

// SessionProfile makes a client class multi-turn: every arrival the class's
// arrival process produces starts a *session* instead of a one-shot request.
// Turn 0 carries the class's Prompt/Output draws like any one-shot request;
// turn N+1 arrives a Think gap after turn N and its prompt embeds turn N's
// whole context as a shared prefix:
//
//	prompt[N+1] = prompt[N] + output[N] + delta[N+1]
//
// — the prior conversation plus the user's fresh message. All turns of a
// session carry the same SessionID and consecutive Turn numbers, which is
// what the serving side's prefix-reuse model and session-affinity dispatch
// key on. The generator is open-loop: think gaps are measured from the
// previous turn's arrival (generation cannot know completions), which keeps
// the stream a pure function of (mix, n, seed).
type SessionProfile struct {
	// Turns draws the number of turns per session; draws are clamped to a
	// minimum of 1 (a 1-turn session is an ordinary one-shot request that
	// happens to carry a SessionID).
	Turns LengthDist
	// Think draws the think-time gap between consecutive turns, in
	// milliseconds.
	Think LengthDist
	// Delta draws the fresh prompt tokens a follow-up turn appends on top
	// of the prior turn's prompt+output — the user's new message.
	Delta LengthDist
	// MaxPrompt caps the grown prompt length (0 = uncapped). Long sessions
	// saturate at the cap, the generator's stand-in for context-window
	// truncation.
	MaxPrompt int
}

func (p *SessionProfile) validate(what string) error {
	if err := p.Turns.validate(what + " session turns"); err != nil {
		return err
	}
	if err := p.Think.validate(what + " session think"); err != nil {
		return err
	}
	if err := p.Delta.validate(what + " session delta"); err != nil {
		return err
	}
	if p.MaxPrompt < 0 {
		return fmt.Errorf("servegen: %s session max prompt %d", what, p.MaxPrompt)
	}
	return nil
}

// Describe renders the profile compactly for reports and CLIs.
func (p *SessionProfile) Describe() string {
	return fmt.Sprintf("turns %s, think %s ms, delta %s", p.Turns.Describe(), p.Think.Describe(), p.Delta.Describe())
}

// expand pushes the turns of session si, starting at startSec, onto the
// class's turn heap. The session's draws come in a fixed order — turns,
// turn-0 prompt, then per turn output / think / delta — so the sub-stream is
// byte-reproducible, and all of them consume the class's own RNG, preserving
// class independence. The session ID is the one allocation.
func (s *classStream) expand(si int, startSec float64) {
	c, p := s.class, s.class.Sessions
	turns := s.turnCount.sample(&s.rng)
	if turns < 1 {
		turns = 1
	}
	var id [64]byte
	sid := string(strconv.AppendInt(append(append(id[:0], c.Name...), '#'), int64(si), 10))
	at := startSec
	prompt := s.prompt.sample(&s.rng)
	for t := 0; t < turns; t++ {
		output := s.output.sample(&s.rng)
		s.turns.Push(turnKey(arrivalAt(at), si, t), sessionTurn{prompt: prompt, output: output, turn: t, sid: sid})
		if t == turns-1 {
			break
		}
		// Length draws are validated positive, so the think gap is at least
		// 1ms: turn arrivals are strictly increasing within a session (until
		// they saturate at the clock's end, where turnKey orders them by
		// turn), and truncating the merged stream always keeps a turn prefix.
		at += float64(s.think.sample(&s.rng)) / 1e3
		prompt += output + s.delta.sample(&s.rng)
		if p.MaxPrompt > 0 && prompt > p.MaxPrompt {
			prompt = p.MaxPrompt
		}
	}
}

// ChatSessions returns the session-heavy mix: multi-turn interactive chat —
// 2-to-5-turn sessions with second-scale think gaps and context that grows
// turn over turn — alongside a one-shot batch backfill tenant. The prompt cap
// (640) plus the output clamp (160) keeps every turn under the 1024-token
// pad-to-max baseline like the other predefined mixes. This is the workload
// the session-affinity dispatch and KV prefix-reuse experiments run on.
func ChatSessions() Mix {
	return Mix{
		Name: "chat-sessions",
		Rate: 2.5,
		Classes: []ClientClass{
			{
				Name: "chat-turns", SLO: SLOInteractive, Share: 0.80,
				Arrival: Poisson(),
				Prompt:  Lognormal(96, 0.8, 8, 256),
				Output:  Lognormal(80, 0.8, 4, 160),
				Sessions: &SessionProfile{
					Turns:     Uniform(2, 5),
					Think:     Lognormal(1500, 0.6, 200, 6000),
					Delta:     Lognormal(48, 0.8, 4, 128),
					MaxPrompt: 640,
				},
			},
			{
				Name: "batch-backfill", SLO: SLOBatch, Share: 0.20,
				Arrival: OnOff(0.25, 20*time.Second),
				Prompt:  Uniform(128, 384),
				Output:  Uniform(32, 96),
			},
		},
	}
}
