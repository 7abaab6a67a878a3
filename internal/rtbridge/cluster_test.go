package rtbridge

import (
	"errors"
	"net"
	"testing"
	"time"

	"coreda/internal/wire"
)

// fakePeer is a minimal cluster front end: it answers hellos for its
// household with an ack and everything else with a redirect to next.
func fakePeer(t *testing.T, serves, next string) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				r := wire.NewReader(c)
				var f wire.Frame
				for {
					if err := r.ReadFrame(&f); err != nil {
						return
					}
					if f.Kind != wire.TypeHello {
						continue
					}
					var reply wire.Packet
					if f.Hello.Household == serves {
						reply = &wire.Ack{UID: f.Hello.UID, Seq: f.Hello.Seq}
					} else {
						reply = &wire.Redirect{Seq: f.Hello.Seq, Addr: next}
					}
					frame, err := wire.AppendFrame(nil, reply)
					if err != nil {
						return
					}
					if _, err := c.Write(frame); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return l.Addr().String()
}

func TestHelloWaitAckAndRedirect(t *testing.T) {
	owner := fakePeer(t, "mine", "")
	addr := fakePeer(t, "other", owner)

	n, err := DialNode(addr, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	// Served household: plain ack.
	if err := n.HelloWait("other", 2*time.Second); err != nil {
		t.Fatalf("HelloWait(other) = %v, want nil", err)
	}
	// Foreign household: the verdict names the owner.
	err = n.HelloWait("mine", 2*time.Second)
	var rd *Redirected
	if !errors.As(err, &rd) || rd.Addr != owner {
		t.Fatalf("HelloWait(mine) = %v, want redirect to %s", err, owner)
	}
}

func TestDialClusterFollowsRedirect(t *testing.T) {
	owner := fakePeer(t, "wandering", "")
	entry := fakePeer(t, "other", owner)

	n, err := DialCluster(entry, "wandering", 7, nil, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if got := n.conn.RemoteAddr().String(); got != owner {
		t.Errorf("DialCluster landed on %s, want owner %s", got, owner)
	}
}

func TestDialClusterBoundsRedirectLoops(t *testing.T) {
	// A peer redirecting every household to itself must not loop forever.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	self := l.Addr().String()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				r := wire.NewReader(c)
				var f wire.Frame
				for {
					if err := r.ReadFrame(&f); err != nil {
						return
					}
					if f.Kind != wire.TypeHello {
						continue
					}
					frame, _ := wire.AppendFrame(nil, &wire.Redirect{Seq: f.Hello.Seq, Addr: self})
					if _, err := c.Write(frame); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	if _, err := DialCluster(self, "anyone", 1, nil, 2*time.Second); err == nil {
		t.Fatal("DialCluster on a redirect loop returned nil error")
	}
}
