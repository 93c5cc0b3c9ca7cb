# A cluster with no replica, shard, key or window slot can run no op,
# so exploring it would report every schedule atomic vacuously: both
# CLIs refuse such a spec with exit 2.  So do the socket subcommands,
# before they open a socket, and so does every subcommand for a twobit
# cluster whose link ids (shards times domains) would not fit a frame.
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
for args in "--shards 0" "--domains 0" "--domains=-3" \
  "--engine twobit --shards 300"; do
  echo "service smoke $args"
  "$service" smoke $args 2>&1
  echo "exit $?"
done
echo "service serve -d unused --domains 0"
"$service" serve -d unused --domains 0 2>&1
echo "exit $?"
echo "mcheck net --engine twobit --shards 300"
"$mcheck" net --engine twobit --shards 300 2>&1
echo "exit $?"
echo "service sim --engine twobit --shards 300"
"$service" sim --engine twobit --shards 300 2>&1
echo "exit $?"
