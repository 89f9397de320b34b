package service

// ShardCounter reads shard i's counter of the given unified-snapshot name
// (one of statNames), for the external tests that drive the service through
// the wire server.
func ShardCounter(s *Service, i int, name string) uint64 {
	for k, n := range statNames {
		if n == name {
			return s.stats.Shard(i).Load(k)
		}
	}
	panic("service: no counter " + name)
}
