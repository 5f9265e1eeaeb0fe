// Kvcache demonstrates the cuckood cache service: the production server
// and client packages this example used to hand-roll (the application
// class that motivates the paper — MemC3 is a memcached replacement).
//
// Run as a server with -listen, or with no flags for a self-contained
// demo: it starts a daemon on a loopback port, drives it with concurrent
// pipelined clients, prints the server's STATS, and drains gracefully.
//
// The wire protocol (SET/SETEX/GET/DEL/TTL/STATS over TCP text lines) is
// documented in docs/PROTOCOL.md; cmd/cuckood is the full daemon.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sort"
	"sync"
	"time"

	"cuckoohash/client"
	"cuckoohash/server"
)

func main() {
	listen := flag.String("listen", "", "address to serve on (empty: run the self-driving demo)")
	clients := flag.Int("clients", 4, "demo client connections")
	opsPer := flag.Int("ops", 20000, "demo operations per client")
	flag.Parse()

	if *listen != "" {
		srv, err := server.New(server.Config{Addr: *listen})
		if err != nil {
			log.Fatal(err)
		}
		if err := srv.Listen(); err != nil {
			log.Fatal(err)
		}
		log.Println("kvcache listening on", srv.Addr())
		log.Fatal(srv.Serve())
	}

	// Demo mode: loopback daemon plus concurrent pipelined clients.
	srv, err := server.New(server.Config{Addr: "127.0.0.1:0", Shards: 4})
	if err != nil {
		log.Fatal(err)
	}
	if err := srv.Listen(); err != nil {
		log.Fatal(err)
	}
	go srv.Serve()
	log.Println("demo server on", srv.Addr())

	var wg sync.WaitGroup
	for cl := 0; cl < *clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			if err := runClient(srv.Addr().String(), cl, *opsPer); err != nil {
				log.Fatalf("client %d: %v", cl, err)
			}
		}(cl)
	}
	wg.Wait()

	printStats(srv.Addr().String())

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatal("drain: ", err)
	}
	fmt.Println("demo done: server drained cleanly")
}

// runClient issues a 1:2 SET:GET mix over one pipelined connection.
func runClient(addr string, cl, ops int) error {
	c, err := client.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	const depth = 16
	for i := 0; i < ops; i++ {
		key := fmt.Sprintf("user:%d:%d", cl, i%1000)
		if i%3 == 0 {
			err = c.QueueSet(key, fmt.Sprintf("session-%d", i), 0)
		} else {
			err = c.QueueGet(key)
		}
		if err != nil {
			return err
		}
		if c.Pending() == depth || i == ops-1 {
			reps, err := c.Flush()
			if err != nil {
				return err
			}
			for _, rep := range reps {
				if rep.Err != nil {
					return rep.Err
				}
			}
		}
	}
	return nil
}

func printStats(addr string) {
	c, err := client.Dial(addr)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	stats, err := c.Stats()
	if err != nil {
		log.Fatal(err)
	}
	names := make([]string, 0, len(stats))
	for name := range stats {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-16s %s\n", name, stats[name])
	}
}
