package store

import (
	"errors"
	"fmt"
	"slices"

	"autonosql/internal/cluster"
)

// Placement: class-aware replica and coordinator selection. When a class is
// pinned, the tenants of that class anchor their replica sets and
// coordinators on a dedicated node pool while everyone else is steered onto
// the remainder, so a premium tenant's replica applies stop queueing behind
// a noisy neighbour's burst. Several classes can hold dedicated pools at the
// same time — each class's tenants bias onto their own pool, and unpinned
// tenants bias away from the union of all dedicated nodes. With no class
// pinned every selection path is byte-for-byte the pre-placement code path.

// classPlacement is one pinned class and its dedicated node pool (sorted).
type classPlacement struct {
	class string
	nodes []cluster.NodeID
}

// EnablePlacementTracking starts recording which tenant owns each written
// key, the data a later PinClass needs to repair every key onto the same
// biased replica set its tenant's reads will contact. Scenarios that allow
// placement enable it up front; scenarios that never will skip the per-write
// store entirely. PinClass enables it implicitly — keys written before that
// point then repair with the shared bias until a read-repair converges them.
func (s *Store) EnablePlacementTracking() { s.trackOwners = true }

// PinClass dedicates the given nodes to one SLA class and marks the given
// tenants as members of that class. The dedicated nodes are tagged on the
// cluster (scale-in avoids them), and a rebalance is started so existing
// data converges onto the new preference lists, exactly like a replication-
// factor change. Pinning a second class while one is active adds a second
// dedicated pool rather than displacing the first; re-pinning an
// already-pinned class or dedicating a node two classes claim is an error.
func (s *Store) PinClass(class string, tenants []TenantID, nodes []cluster.NodeID) error {
	if class == "" {
		return errors.New("store: placement class is required")
	}
	if s.ClassPinned(class) {
		return fmt.Errorf("store: class %q already pinned", class)
	}
	if len(nodes) == 0 {
		return errors.New("store: placement needs at least one dedicated node")
	}
	for _, id := range nodes {
		if slices.Contains(s.dedicated, id) {
			return fmt.Errorf("store: node %v is already dedicated to class %q", id, s.nodeClass(id))
		}
	}
	s.EnablePlacementTracking()
	p := classPlacement{class: class, nodes: append([]cluster.NodeID(nil), nodes...)}
	slices.Sort(p.nodes)
	s.placements = append(s.placements, p)
	s.rebuildDedicated()
	if len(s.tenantPool) < len(s.tenants) {
		grown := make([]int, len(s.tenants))
		copy(grown, s.tenantPool)
		s.tenantPool = grown
	}
	for _, id := range tenants {
		if id > 0 && int(id) <= len(s.tenantPool) {
			s.tenantPool[id-1] = len(s.placements)
		}
	}
	for _, id := range p.nodes {
		if n, ok := s.cluster.Node(id); ok {
			n.SetClass(class)
		}
	}
	// Moving replica ownership streams data, the same cost model as growing
	// the replication factor; the post-rebalance repair converges existing
	// keys onto their new, biased preference lists.
	s.startRebalance()
	return nil
}

// UnpinClass releases the most recently pinned class's nodes back into the
// shared pool and rebalances ownership accordingly. With several classes
// pinned the older placements stay active.
func (s *Store) UnpinClass() error {
	if len(s.placements) == 0 {
		return errors.New("store: no class pinned")
	}
	last := len(s.placements) - 1
	for _, id := range s.placements[last].nodes {
		if n, ok := s.cluster.Node(id); ok {
			n.SetClass("")
		}
	}
	s.placements = s.placements[:last]
	s.rebuildDedicated()
	for i, p := range s.tenantPool {
		if p == last+1 {
			s.tenantPool[i] = 0
		}
	}
	if len(s.placements) == 0 {
		s.tenantPool = nil
	}
	s.startRebalance()
	return nil
}

// rebuildDedicated recomputes the sorted union of every dedicated pool.
func (s *Store) rebuildDedicated() {
	s.dedicated = s.dedicated[:0]
	for _, p := range s.placements {
		s.dedicated = append(s.dedicated, p.nodes...)
	}
	slices.Sort(s.dedicated)
	s.dedicated = slices.Compact(s.dedicated)
}

// nodeClass returns the class a node is dedicated to, or "".
func (s *Store) nodeClass(id cluster.NodeID) string {
	for _, p := range s.placements {
		if slices.Contains(p.nodes, id) {
			return p.class
		}
	}
	return ""
}

// PinnedClass returns the most recently pinned SLA class, or "".
func (s *Store) PinnedClass() string {
	if len(s.placements) == 0 {
		return ""
	}
	return s.placements[len(s.placements)-1].class
}

// ClassPinned reports whether the given class currently holds dedicated
// nodes.
func (s *Store) ClassPinned(class string) bool {
	for _, p := range s.placements {
		if p.class == class {
			return true
		}
	}
	return false
}

// PlacementNodes returns the IDs of all dedicated nodes (sorted), or nil.
func (s *Store) PlacementNodes() []cluster.NodeID {
	if len(s.dedicated) == 0 {
		return nil
	}
	out := make([]cluster.NodeID, len(s.dedicated))
	copy(out, s.dedicated)
	return out
}

// tenantPoolNodes returns the dedicated pool of the tagged tenant's pinned
// class, or nil when the tenant's class holds no dedicated nodes.
func (s *Store) tenantPoolNodes(id TenantID) []cluster.NodeID {
	if id > 0 && int(id) <= len(s.tenantPool) {
		if p := s.tenantPool[id-1]; p > 0 && p <= len(s.placements) {
			return s.placements[p-1].nodes
		}
	}
	return nil
}

// appendReplicasTenant resolves the preference list for one tenant's
// operation into the store's scratch buffer. Without an active placement it
// is exactly appendReplicas; with one, the walk is biased towards the
// tenant's pool (its class's dedicated nodes, or the shared remainder for
// unpinned tenants). Like appendReplicas, the result is valid until the next
// operation.
func (s *Store) appendReplicasTenant(tenant TenantID, key KeyID) []cluster.NodeID {
	if len(s.placements) == 0 {
		return s.appendReplicas(key)
	}
	if pool := s.tenantPoolNodes(tenant); pool != nil {
		s.replicaScratch = s.ring.appendBiasedAt(s.replicaScratch[:0], s.token(key), s.rf, pool, true)
	} else {
		s.replicaScratch = s.ring.appendBiasedAt(s.replicaScratch[:0], s.token(key), s.rf, s.dedicated, false)
	}
	return s.replicaScratch
}

// replicasForRepair resolves the preference list repair paths must converge a
// key onto. Under an active placement the key's owning tenant (recorded at
// write time) decides the bias, so anti-entropy repairs the same replica set
// reads will contact.
func (s *Store) replicasForRepair(key KeyID) []cluster.NodeID {
	if len(s.placements) == 0 || !s.trackOwners {
		return s.appendReplicas(key)
	}
	return s.appendReplicasTenant(s.keyTenant.get(key), key)
}

// pickCoordinatorTenant selects the coordinator for one tenant's operation.
// Without an active placement it is exactly pickCoordinator (one rng draw);
// with one, the draw is made over the tenant's preferred pool when that pool
// has an available node, falling back to the full cluster otherwise — still
// exactly one rng draw per operation, so fault-free runs replay identically.
func (s *Store) pickCoordinatorTenant(tenant TenantID) (*cluster.Node, bool) {
	if len(s.placements) == 0 {
		return s.pickCoordinator()
	}
	nodes := s.cluster.AvailableNodes()
	if len(nodes) == 0 {
		return nil, false
	}
	pool := s.coordScratch[:0]
	if preferred := s.tenantPoolNodes(tenant); preferred != nil {
		for _, n := range nodes {
			if slices.Contains(preferred, n.ID()) {
				pool = append(pool, n)
			}
		}
	} else {
		for _, n := range nodes {
			if !slices.Contains(s.dedicated, n.ID()) {
				pool = append(pool, n)
			}
		}
	}
	s.coordScratch = pool
	if len(pool) == 0 {
		return nodes[s.rng.Intn(len(nodes))], true
	}
	return pool[s.rng.Intn(len(pool))], true
}
