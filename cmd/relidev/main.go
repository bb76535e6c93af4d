// Command relidev is a client for a TCP-deployed reliable device: it
// joins the replica group as a site of its own (the user-state server of
// Figure 1 co-located with the client, so reads are local) and performs
// block reads and writes against the replicated device.
//
// Usage:
//
//	relidev -id 0 -peers 0=127.0.0.1:7000,1=127.0.0.1:7001,2=127.0.0.1:7002 \
//	        -scheme naive write 7 "hello replicated world"
//	relidev ... read 7
//	relidev ... status
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"relidev"
)

func main() {
	var (
		id        = flag.Int("id", 0, "this client's site id")
		peersF    = flag.String("peers", "", "comma-separated id=host:port for every site, including this one")
		schemeF   = flag.String("scheme", "naive", "consistency scheme: voting, ac (available-copy), nac (naive)")
		storePath = flag.String("store", "", "path of the local block image (empty = in-memory)")
		blocks    = flag.Int("blocks", 128, "number of blocks")
		blockSize = flag.Int("blocksize", 512, "block size in bytes")
	)
	flag.Parse()
	if err := run(*id, *peersF, *schemeF, *storePath, *blocks, *blockSize, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "relidev:", err)
		os.Exit(1)
	}
}

func run(id int, peersF, schemeF, storePath string, blocks, blockSize int, args []string) error {
	if len(args) == 0 {
		return errors.New("missing command: read <block> | write <block> <text> | status")
	}
	peers, err := relidev.ParsePeers(peersF)
	if err != nil {
		return err
	}
	scheme, err := relidev.ParseScheme(schemeF)
	if err != nil {
		return err
	}
	if _, ok := peers[id]; !ok {
		// The client is a site too; give it an ephemeral local address
		// when the operator listed only the remote servers.
		peers[id] = "127.0.0.1:0"
	}
	site, err := relidev.OpenRemote(relidev.RemoteConfig{
		Self:      id,
		Peers:     peers,
		Scheme:    scheme,
		Geometry:  relidev.Geometry{BlockSize: blockSize, NumBlocks: blocks},
		StorePath: storePath,
		Timeout:   3 * time.Second,
	})
	if err != nil {
		return err
	}
	defer site.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	dev := site.Device()

	switch args[0] {
	case "read":
		if len(args) != 2 {
			return errors.New("usage: read <block>")
		}
		idx, err := strconv.Atoi(args[1])
		if err != nil {
			return err
		}
		data, err := dev.ReadBlock(ctx, relidev.Index(idx))
		if err != nil {
			return err
		}
		fmt.Printf("block %d: %q\n", idx, strings.TrimRight(string(data), "\x00"))
		return nil
	case "write":
		if len(args) != 3 {
			return errors.New("usage: write <block> <text>")
		}
		idx, err := strconv.Atoi(args[1])
		if err != nil {
			return err
		}
		payload := make([]byte, blockSize)
		copy(payload, args[2])
		if err := dev.WriteBlock(ctx, relidev.Index(idx), payload); err != nil {
			return err
		}
		fmt.Printf("block %d written (%d bytes of payload)\n", idx, len(args[2]))
		return nil
	case "status":
		fmt.Printf("local site %d: %v, listening on %s\n", id, site.State(), site.Addr())
		return nil
	default:
		return fmt.Errorf("unknown command %q", args[0])
	}
}
