# A cluster with no replica, shard, key or window slot can run no op,
# so exploring it would report every schedule atomic vacuously: both
# CLIs refuse such a spec with exit 2.
#   usage: bash degenerate_clusters.sh MCHECK SERVICE
mcheck=$1
service=$2
for args in "--readers 0 --expect-exhausted --window 0" \
  "--readers 0 --expect-exhausted --replicas 0" "--shards 0" "--keys 0" \
  "--group-size 0"; do
  echo "mcheck net $args"
  "$mcheck" net $args 2>&1
  echo "exit $?"
done
for args in "--shards 0" "--replicas 0" "--window 0"; do
  echo "service sim $args"
  "$service" sim $args 2>&1
  echo "exit $?"
done
